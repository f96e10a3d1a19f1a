// Compression-study: how much does an undocumented intra-SSD compression
// scheme move device lifetime? (Figure 2's question, as a library user.)
package main

import (
	"fmt"

	"ssdtp/internal/compress"
	"ssdtp/internal/oltp"
)

func main() {
	for _, level := range []struct {
		name  string
		ratio float64
	}{{"highly compressible", 0.22}, {"barely compressible", 0.85}} {
		fmt.Printf("%s OLTP pages (ratio %.2f):\n", level.name, level.ratio)
		base := 0.0
		for _, name := range compress.SchemeNames {
			s, err := compress.New(name, 16384)
			if err != nil {
				panic(err)
			}
			eng := oltp.NewEngine(oltp.Config{TablePages: 16384, PageRatio: level.ratio, Seed: 5})
			eng.Prime(s)
			res := eng.Run(s, 20000)
			w := res.WritesPerTxn()
			if name == "re-bp32" {
				base = w
			}
			fmt.Printf("  %-8s %.4f flash pages/txn\n", name, w)
		}
		fmt.Printf("  (spread vs re-bp32 baseline %.4f shown by cmd/reproduce -run fig2)\n\n", base)
	}
	fmt.Println("same host workload, same drive interface — yet flash wear varies by")
	fmt.Println("multiples depending on a firmware feature no datasheet documents.")
}
