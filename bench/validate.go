package main

import (
	"fmt"
	"sort"
	"strings"
)

// streamsOf lists the unit families a workload draws from.
func streamsOf(wl string) []stream {
	if wl == wlService {
		return []stream{streamTimed, streamCheck, streamArchive, streamProbe}
	}
	return []stream{streamTimed, streamCheck}
}

var streamNames = map[stream]string{
	streamTimed: "streamTimed", streamCheck: "streamCheck",
	streamArchive: "streamArchive", streamProbe: "streamProbe",
}

// validatePool runs every unit the generator can hand out — each pool
// offset of each stream of each workload — once, as a plain two-worker
// omen process (a unit fails or succeeds on its energies, not on the
// path that solves them), and prints the offsets whose unit fails, as
// the rejectedOffsets literal of workloads.go. It is how that table is
// made, and how it is remade after a change to the solvers' numerics.
func (e *env) validatePool(names []string) int {
	found := map[string]map[stream][]int{}
	total := 0
	for _, wl := range names {
		for _, st := range streamsOf(wl) {
			var bad []int
			for k := 0; k < poolSize; k++ {
				u := unitAt(wl, st, k)
				u.Workers = 2
				pr, err := runProc(e.omen, u.flags()...)
				if err == nil {
					if u.Mode == "iv" {
						_, err = checkIV(pr.stdout, u.NVG)
					} else {
						_, err = checkSweep(pr.stdout, u.NE)
					}
				}
				if err != nil {
					bad = append(bad, k)
					fmt.Printf("validate: %s %s offset %d fails: %v\n", wl, streamNames[st], k, err)
				}
			}
			fmt.Printf("validate: %s %s: %d of %d offsets rejected\n", wl, streamNames[st], len(bad), poolSize)
			if len(bad) > 0 {
				if found[wl] == nil {
					found[wl] = map[stream][]int{}
				}
				found[wl][st] = bad
				total += len(bad)
			}
		}
	}
	fmt.Println("var rejectedOffsets = map[string]map[stream][]int{")
	wls := make([]string, 0, len(found))
	for wl := range found {
		wls = append(wls, wl)
	}
	sort.Strings(wls)
	for _, wl := range wls {
		fmt.Printf("\t%q: {\n", wl)
		for _, st := range streamsOf(wl) {
			if bad := found[wl][st]; len(bad) > 0 {
				fmt.Printf("\t\t%s: {%s},\n", streamNames[st], strings.Trim(strings.Join(strings.Fields(fmt.Sprint(bad)), ", "), "[]"))
			}
		}
		fmt.Println("\t},")
	}
	fmt.Println("}")
	fmt.Printf("validate: %d offsets rejected in all\n", total)
	return 0
}
