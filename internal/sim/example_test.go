package sim_test

import (
	"fmt"

	"ssdtp/internal/sim"
)

func ExampleEngine() {
	eng := sim.NewEngine()
	eng.Schedule(5*sim.Microsecond, func() {
		fmt.Println("second, at", eng.Now())
	})
	eng.Schedule(sim.Microsecond, func() {
		fmt.Println("first, at", eng.Now())
	})
	eng.Run()
	// Output:
	// first, at 1000
	// second, at 5000
}

func ExampleResource() {
	eng := sim.NewEngine()
	bus := sim.NewResource(eng)
	for i := 0; i < 2; i++ {
		i := i
		bus.Acquire(func() {
			eng.Schedule(10*sim.Microsecond, func() {
				bus.Release()
				fmt.Printf("transfer %d done at %dµs\n", i, eng.Now()/sim.Microsecond)
			})
		})
	}
	eng.Run()
	// Output:
	// transfer 0 done at 10µs
	// transfer 1 done at 20µs
}
