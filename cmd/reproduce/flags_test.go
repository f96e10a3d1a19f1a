package main

import (
	"slices"
	"sort"
	"testing"
)

func TestParseRun(t *testing.T) {
	cases := []struct {
		run  string
		want []string // nil = rejected
	}{
		{"all", experimentIDs},
		{"fig5", []string{"fig5"}},
		{"fig3, tabS4", []string{"fig3", "tabS4"}},
		{"tabS4,fig3,fig3", []string{"fig3", "tabS4"}},
		{"fig5,all", experimentIDs},
		{"fig5,tabS99", nil},
		{"Fig5", nil},
		{"", nil},
		{"fig5,", nil},
	}
	for _, c := range cases {
		got, err := parseRun(c.run)
		if c.want == nil {
			if err == nil {
				t.Errorf("parseRun(%q) = %v, want an error", c.run, got)
			}
			continue
		}
		var ids []string
		for id := range got {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		want := slices.Clone(c.want)
		sort.Strings(want)
		if err != nil || !slices.Equal(ids, want) {
			t.Errorf("parseRun(%q) = %v, %v; want %v", c.run, ids, err, c.want)
		}
	}
}
