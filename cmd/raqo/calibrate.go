package main

import (
	"flag"
	"fmt"

	"raqo/internal/feedback"
)

// calibrateCmd replays a feedback journal offline: seed with the models
// `raqo serve` starts with, feed every journaled observation through a
// fresh store, retrain the cost models from the accumulated samples, and
// report the mean absolute relative prediction error before and after —
// the same recalibration `raqo serve` performs online, minus the serving.
// Replaying the same journal always produces the same model (the feedback
// package's determinism guarantee), so this doubles as a way to inspect
// what a server learned.
func calibrateCmd(args []string) error {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	journalPath := fs.String("journal", "", "feedback journal (JSONL) to replay (required)")
	capacity := fs.Int("capacity", 0, "feedback ring capacity; journaled observations beyond it age out (0 = hold all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *journalPath == "" {
		return fmt.Errorf("calibrate: -journal is required")
	}

	obs, err := feedback.ReadJournal(*journalPath)
	if err != nil {
		return err
	}
	if len(obs) == 0 {
		return fmt.Errorf("calibrate: journal %s holds no observations", *journalPath)
	}

	opt, err := servedOptimizer()
	if err != nil {
		return err
	}
	seed := opt.Models()

	ringCap := *capacity
	if ringCap <= 0 {
		ringCap = len(obs)
	}
	store := feedback.NewStore(ringCap, nil)
	det := feedback.NewDetector(feedback.DriftConfig{})
	rec := feedback.NewRecalibrator(store, det, seed)
	for i, o := range obs {
		if err := rec.Feed(o); err != nil {
			return fmt.Errorf("calibrate: observation %d: %w", i, err)
		}
	}

	profiles := store.Profiles()
	before := feedback.MeanAbsRelError(seed, profiles)
	drifted := det.Drifted() // Recalibrate resets the detector; read first
	r, err := rec.Recalibrate()
	if err != nil {
		return fmt.Errorf("calibrate: %w", err)
	}
	after := feedback.MeanAbsRelError(rec.Models(), profiles)

	fmt.Printf("journal: %s (%d observations, %d operator samples)\n", *journalPath, len(obs), len(profiles))
	fmt.Printf("drifted before recalibration: %v\n", drifted)
	fmt.Printf("retrained: %v  carried: %v  (version %d, %d samples)\n", r.Retrained, r.Carried, r.Version, r.Samples)
	fmt.Printf("mean abs rel error: %.4f before -> %.4f after\n", before, after)
	return nil
}
