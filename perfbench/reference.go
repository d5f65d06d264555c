package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"

	"p2"
)

// fingerprintsJSON maps every plan-cold and plan-measured catalog entry to
// the fingerprint of its reference ranking. The references come from the
// serial planners (p2.PlanSerial, p2.PlanJointSerial), not from the
// engine under test; TestFingerprintsMatchSerialReference regenerates
// them (go test -run Fingerprints -update rewrites the file).
//
//go:embed fingerprints.json
var fingerprintsJSON []byte

func loadFingerprints() (map[string]string, error) {
	var fps map[string]string
	if err := json.Unmarshal(fingerprintsJSON, &fps); err != nil {
		return nil, fmt.Errorf("fingerprints.json: %w", err)
	}
	return fps, nil
}

// fingerprintStrategies hashes a ranking: per rank the matrix, program,
// algorithm string and the exact bits of the predicted and measured
// times, so any change of order, content or floating-point result shows.
func fingerprintStrategies(ss []*p2.Strategy) string {
	h := sha256.New()
	for _, s := range ss {
		writeStrategy(h, s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fingerprintJoint hashes a joint placement ranking the same way, adding
// each choice's weighted per-reduction costs and totals.
func fingerprintJoint(choices []*p2.JointChoice) string {
	h := sha256.New()
	for _, c := range choices {
		fmt.Fprintf(h, "%v|%016x|%016x\n", c.Matrix, math.Float64bits(c.Total), math.Float64bits(c.MeasuredTotal))
		for i, s := range c.PerReduction {
			fmt.Fprintf(h, "  %016x ", math.Float64bits(c.Costs[i]))
			writeStrategy(h, s)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeStrategy(h hash.Hash, s *p2.Strategy) {
	fmt.Fprintf(h, "%v|%v|%s|%016x|%016x\n", s.Matrix, s.Program, s.AlgoString(),
		math.Float64bits(s.Predicted), math.Float64bits(s.Measured))
}
