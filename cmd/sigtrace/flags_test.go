package main

import "testing"

func TestCheckWidth(t *testing.T) {
	cases := []struct {
		width int
		ok    bool
	}{
		{96, true},
		{16, true},
		{15, false},
		{0, false},
		{-5, false},
	}
	for _, c := range cases {
		if err := checkWidth(c.width); (err == nil) != c.ok {
			t.Errorf("checkWidth(%d) = %v, want ok=%v", c.width, err, c.ok)
		}
	}
}
