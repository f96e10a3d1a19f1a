package main

import "testing"

func TestCheckMinLen(t *testing.T) {
	cases := []struct {
		n  int
		ok bool
	}{
		{4, true},
		{2, true},
		{100, true},
		{1, false},
		{0, false},
		{-3, false},
	}
	for _, c := range cases {
		if err := checkMinLen(c.n); (err == nil) != c.ok {
			t.Errorf("checkMinLen(%d) = %v, want ok=%v", c.n, err, c.ok)
		}
	}
}
