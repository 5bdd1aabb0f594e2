package swf

import "sort"

// Merge combines several logs into one stream ordered by submit time,
// renumbering job IDs. It is the union operation behind the full
// LANL/SDSC observations (interactive plus batch jobs of one machine)
// and useful for building mixed workloads from model outputs. Headers
// are concatenated in input order. PrecedingID links are cleared, since
// renumbering invalidates them across sources.
func Merge(logs ...*Log) *Log {
	out := &Log{}
	for _, l := range logs {
		if l == nil {
			continue
		}
		out.Header = append(out.Header, l.Header...)
		out.Jobs = append(out.Jobs, l.Jobs...)
	}
	sort.SliceStable(out.Jobs, func(a, b int) bool { return out.Jobs[a].Submit < out.Jobs[b].Submit })
	for i := range out.Jobs {
		out.Jobs[i].ID = i + 1
		out.Jobs[i].PrecedingID = -1
		out.Jobs[i].ThinkTime = -1
	}
	return out
}

// ShiftTime adds delta to every submit time, e.g. to splice logs
// end-to-end.
func (l *Log) ShiftTime(delta float64) *Log {
	out := l.Clone()
	for i := range out.Jobs {
		out.Jobs[i].Submit += delta
	}
	return out
}
