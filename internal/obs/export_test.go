package obs

import "sort"

// MergeCounters sums counter maps from independent replicas into one
// total per name.
func MergeCounters(ms ...map[string]int64) map[string]int64 {
	out := make(map[string]int64)
	for _, m := range ms {
		for k, v := range m {
			out[k] += v
		}
	}
	return out
}

// MergedNames returns the sorted key set of a merged counter map, for
// deterministic rendering.
func MergedNames(m map[string]int64) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
