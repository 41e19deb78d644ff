package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"micromama/internal/experiment"
	"micromama/internal/sim"
	"micromama/internal/sweep"
)

// appendJobKey derives the content address of a job and appends it, as
// sweep.KeyLen hex digits, to dst: the SHA-256 of a canonical JSON
// encoding of everything that determines the simulation outcome — mix
// (ordered trace names), seed, the controller key, the resolved
// experiment.Scale and the fully resolved sim.Config. Two specs that
// resolve to the same simulation hash identically even if they spelled
// defaults differently; TimeoutMs is deliberately excluded because it
// bounds execution without changing the result.
//
// The hashed bytes are exactly json.Marshal(struct{Mix; Seed;
// Controller; Scale; Config}) — every cache file, job ID and ring
// placement derives from them, so they may never change
// (TestJobKeyMatchesCanonicalJSON holds them to that definition) — but
// nothing is marshalled per call. Config, the last member and 1.2 KB of
// the encoding's 1.4, arrives already encoded (configTail, from
// configMemo: a grid has one or two distinct configs), and the head is
// appended member by member: the integers through strconv, a string
// directly unless encoding/json would escape it (sweep.AppendString).
func appendJobKey(dst []byte, c *sweep.Cell, configTail []byte, scale experiment.Scale) []byte {
	var buf [2048]byte // the encoding is 1.4 KB; a longer one moves to the heap
	b := append(buf[:0], `{"Mix":`...)
	if c.Mix == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, name := range c.Mix {
			if i > 0 {
				b = append(b, ',')
			}
			b = sweep.AppendString(b, name)
		}
		b = append(b, ']')
	}
	b = strconv.AppendUint(append(b, `,"Seed":`...), c.Seed, 10)
	b = sweep.AppendString(append(b, `,"Controller":`...), c.Controller)
	b = strconv.AppendUint(append(b, `,"Scale":{"Target":`...), scale.Target, 10)
	b = strconv.AppendUint(append(b, `,"MaxCyclesFactor":`...), scale.MaxCyclesFactor, 10)
	b = strconv.AppendInt(append(b, `,"MixCount":`...), int64(scale.MixCount), 10)
	b = strconv.AppendUint(append(b, `,"Seed":`...), scale.Seed, 10)
	b = strconv.AppendUint(append(b, `,"Step":`...), scale.Step, 10)
	b = append(append(b, '}'), configTail...)
	sum := sha256.Sum256(b)
	return hex.AppendEncode(dst, sum[:])
}

// jobKey is appendJobKey as a string, the form the pinning tests and
// BenchmarkJobKey hash through; the resolver itself appends. Nothing in
// it can fail: every hashed member is a string or an integer.
func jobKey(spec JobSpec, configTail []byte, scale experiment.Scale) (string, error) {
	var key [sweep.KeyLen]byte
	return string(appendJobKey(key[:0], &spec.Cell, configTail, scale)), nil
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
