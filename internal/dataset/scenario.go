package dataset

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"

	"gendt/internal/scenario"
)

// FromScenario compiles a bound scenario into a Dataset — the one way a
// world is built: every registered config file, A and B included, takes
// this path through NewByName.
func FromScenario(sc *scenario.Scenario, spec Spec) (*Dataset, error) {
	w, built, err := scenario.Build(sc, spec.Seed, spec.scale())
	if err != nil {
		return nil, err
	}
	d := &Dataset{Name: sc.Name, World: w, Runs: make([]Run, len(built))}
	for i, r := range built {
		d.Runs[i] = Run{Scenario: r.Scenario, Train: r.Train, Traj: r.Traj, Meas: r.Meas}
	}
	return d, nil
}

// Fingerprint hashes everything observable about the dataset — deployment
// cells, every trajectory sample, and every measurement including context
// annotations — with FNV-64a over exact float bits. Two datasets share a
// fingerprint iff they are bit-identical, which is how golden_test.go pins
// the committed A/B configs to constants.
func (d *Dataset) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wf := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	wi := func(i int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(i))
		h.Write(buf[:])
	}
	wb := func(b bool) {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	io.WriteString(h, d.Name)
	for _, c := range d.World.Deployment.Cells {
		wi(int64(c.ID))
		wf(c.Site.Lat)
		wf(c.Site.Lon)
		wf(c.PMaxDBm)
		wf(c.Azimuth)
		wf(c.BeamWidth)
		wf(c.Height)
		wf(c.PeakGainDBi)
		wf(c.FrontToBackDB)
	}
	for _, r := range d.Runs {
		io.WriteString(h, r.Scenario)
		wb(r.Train)
		for _, s := range r.Traj {
			wf(s.T)
			wf(s.Point.Lat)
			wf(s.Point.Lon)
		}
		for i := range r.Meas {
			m := &r.Meas[i]
			wf(m.T)
			wf(m.RSRP)
			wf(m.RSRQ)
			wf(m.SINR)
			wf(m.CQI)
			wf(m.RSSI)
			wi(int64(m.ServingCell))
			wb(m.Handover)
			for _, v := range m.Visible {
				wi(int64(v.Cell.ID))
				wf(v.Distance)
			}
			for _, e := range m.EnvCtx {
				wf(e)
			}
			for _, l := range m.VisibleLoad {
				wf(l)
			}
		}
	}
	return h.Sum64()
}
