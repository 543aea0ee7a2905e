package ml

import "repro/internal/obs"

// scanSpan times the column-at-a-time training-set materializations — the
// "scan" phase of every columnar Fit. One observation per ScanRowMajor /
// ScanActiveIndices call, so the cost is two clock reads per Fit, not per row.
var scanSpan = obs.TrainSpan("scan",
	"column-at-a-time feature scans materializing training blocks")

// ScoreSpan times evaluation scoring: one observation per predictAll call
// (Accuracy, Confuse, CompareClassifiers) and per feature-selection round of
// the Naive Bayes wrappers, never per row.
var ScoreSpan = obs.TrainSpan("score",
	"evaluation scoring: batched or per-row prediction passes and selection rounds")
