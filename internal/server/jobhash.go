package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"micromama/internal/experiment"
	"micromama/internal/sim"
)

// jobKey derives the content address of a job: the SHA-256 of a
// canonical JSON encoding of everything that determines the simulation
// outcome — mix (ordered trace names), seed, the fully resolved
// sim.Config, the controller key, and the resolved experiment.Scale.
// Two specs that resolve to the same simulation hash identically even
// if they spelled defaults differently; TimeoutMs is deliberately
// excluded because it bounds execution without changing the result.
//
// The hashed bytes are exactly json.Marshal(struct{Mix; Seed;
// Controller; Scale; Config}) — every cache file, job ID and ring
// placement derives from them, so they may never change — but Config,
// the last member and 1.2 KB of the encoding's 1.4, arrives already
// encoded (configTail, from configMemo: a grid has one or two distinct
// configs), so only the head is marshalled per call.
//
// Determinism: all hashed types are flat exported-field structs, and
// encoding/json emits struct fields in declaration order, so the
// encoding is canonical without map-ordering concerns. A marshal
// failure (an unmarshalable value sneaking into the hashed structs)
// is returned as an error — never a panic — so a hostile or buggy
// spec degrades to an HTTP error instead of taking the process down.
func jobKey(spec JobSpec, configTail []byte, scale experiment.Scale) (string, error) {
	head, err := json.Marshal(struct {
		Mix        []string
		Seed       uint64
		Controller string
		Scale      experiment.Scale
	}{spec.Mix, spec.Seed, spec.Controller, scale})
	if err != nil {
		return "", fmt.Errorf("canonical job encoding: %w", err)
	}
	h := sha256.New()
	h.Write(head[:len(head)-1]) // reopen the object: drop its "}"
	h.Write(configTail)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0])), nil
}

// jobID renders the short job identifier clients see: the first 16 hex
// digits of the content hash, prefixed for greppability. Identical
// submissions therefore share a job ID by construction.
func jobID(key string) string { return "j" + key[:16] }

// resolvedConfig is a system shape's sim.Config and the end of its jobs'
// canonical encoding: `,"Config":` + json.Marshal(cfg) + `}`. Read-only.
type resolvedConfig struct {
	cfg  sim.Config
	tail []byte
}

// configMemo builds the resolvedConfig of each (cores, DRAM MT/s,
// channels) once. The DRAM numbers are whatever integers a client
// sends, so the memo starts over when it holds configMemoCap shapes;
// real traffic (1–16 cores × a few speed grades) never gets there.
type configMemo struct {
	mu sync.Mutex
	m  map[[3]int]*resolvedConfig
}

const configMemoCap = 256

func (m *configMemo) resolve(cores, mtps, channels int) (*resolvedConfig, error) {
	shape := [3]int{cores, mtps, channels}
	m.mu.Lock()
	defer m.mu.Unlock()
	if rc, ok := m.m[shape]; ok {
		return rc, nil
	}
	rc := &resolvedConfig{cfg: experiment.SystemConfig(cores, mtps, channels)}
	b, err := json.Marshal(rc.cfg)
	if err != nil {
		return nil, fmt.Errorf("canonical config encoding: %w", err)
	}
	rc.tail = append(append([]byte(`,"Config":`), b...), '}')
	if m.m == nil || len(m.m) >= configMemoCap {
		m.m = make(map[[3]int]*resolvedConfig)
	}
	m.m[shape] = rc
	return rc, nil
}
