package main

import (
	"math"

	"vdsms"
	"vdsms/internal/workload"
)

// Floors of the quality checks. They sit well below every seed measured
// while the benchmark was written, so they trip on a detector that has
// stopped finding copies or started reporting noise, not on seed variance.
const (
	recallFloor    = 0.5
	precisionFloor = 0.5
)

// score applies the paper's Section VI rule (as workload.Evaluate does): a
// match of query Q reported at key frame p is correct iff
// ins.Begin + w ≤ p ≤ ins.End + w for an insertion ins of Q. Recall counts
// only the insertions for which countable holds (nil: all), so a stream fed
// only part of an insertion is not charged for missing it.
type score struct {
	correct, reported  int
	detected, inserted int
	// delays are the seconds from a match's start to its report. Both ends
	// fall on basic-window boundaries, so delays are whole windows.
	delays []float64
}

func (s *score) add(ms []vdsms.Match, truth []workload.Insertion, countable func(workload.Insertion) bool) {
	byQuery := make(map[int][]workload.Insertion)
	for _, ins := range truth {
		byQuery[ins.QueryID] = append(byQuery[ins.QueryID], ins)
		if countable == nil || countable(ins) {
			s.inserted++
		}
	}
	detected := make(map[workload.Insertion]bool)
	for _, m := range ms {
		s.reported++
		s.delays = append(s.delays, (m.DetectedAt - m.Start).Seconds())
		p := int(math.Round(m.DetectedAt.Seconds() * keyFPS))
		for _, ins := range byQuery[m.QueryID] {
			if ins.Begin+winFrames <= p && p <= ins.End+winFrames {
				s.correct++
				if countable == nil || countable(ins) {
					detected[ins] = true
				}
				break
			}
		}
	}
	s.detected += len(detected)
}

// addQuality scores each stream's matches against its truth and reports
// recall, precision and detection delay, with the floor checks.
func addQuality(rep *report, ms [][]vdsms.Match, truth [][]workload.Insertion, countable []func(workload.Insertion) bool) {
	var s score
	for i := range ms {
		var c func(workload.Insertion) bool
		if countable != nil {
			c = countable[i]
		}
		s.add(ms[i], truth[i], c)
	}
	recall := float64(s.detected) / float64(max(s.inserted, 1))
	precision := float64(s.correct) / float64(max(s.reported, 1))
	rep.addE2E("recall", recall, "share", s.inserted)
	rep.addE2E("precision", precision, "share", s.reported)
	rep.addE2E("detect_delay_p50_s", gridMedian(s.delays, winFrames/keyFPS), "s", len(s.delays))
	rep.expect("recall", recall >= recallFloor, "%d of %d insertions detected (floor %.2f)", s.detected, s.inserted, recallFloor)
	rep.expect("precision", precision >= precisionFloor, "%d of %d matches correct (floor %.2f)", s.correct, s.reported, precisionFloor)
}
