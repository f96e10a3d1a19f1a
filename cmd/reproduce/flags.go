package main

import (
	"fmt"
	"slices"
	"strings"
)

// experimentIDs are the -run ids, in the order the command runs them.
var experimentIDs = []string{
	"fig1", "fig2", "fig3", "fig4a", "fig4b", "fig5", "fleet", "transparency",
	"tabS2", "tabS3", "tabS4", "tabS5", "tabS6", "tabS7", "tabS8", "fig6",
}

// parseRun resolves -run, a comma-separated list of experiment ids or "all",
// to the set of ids to run. An unknown or empty id is an error naming the
// valid ones, so a typo fails before any experiment runs instead of being
// skipped.
func parseRun(run string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, id := range strings.Split(run, ",") {
		id = strings.TrimSpace(id)
		switch {
		case id == "all":
			for _, e := range experimentIDs {
				want[e] = true
			}
		case slices.Contains(experimentIDs, id):
			want[id] = true
		default:
			return nil, fmt.Errorf("unknown experiment id %q (want all or ids from %s)", id, strings.Join(experimentIDs, ","))
		}
	}
	return want, nil
}
