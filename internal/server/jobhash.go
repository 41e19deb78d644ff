package server

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"micromama/internal/experiment"
	"micromama/internal/sweep"
)

// appendJobKey derives the content address of a job and appends its
// sweep.DigestLen raw bytes to dst (the job key is their sweep.KeyLen
// hex digits): the SHA-256 of a canonical JSON encoding of everything
// that determines the simulation outcome — mix (ordered trace names),
// seed, the controller key, the resolved experiment.Scale, the fully
// resolved sim.Config and the model epoch. Two specs that
// resolve to the same simulation hash identically even if they spelled
// defaults differently; TimeoutMs is deliberately excluded because it
// bounds execution without changing the result.
//
// The hashed bytes are exactly json.Marshal(struct{Mix; Seed;
// Controller; Scale; Config; ModelEpoch int `json:",omitempty"`}) —
// every cache file, job ID and ring placement derives from them, so
// they change only with the epoch (TestJobKeyMatchesCanonicalJSON holds
// them to that definition) — but nothing is marshalled per call.
// Config, 1.2 KB of the encoding's 1.4, arrives already encoded
// (configTail, from configMemo: a grid has one or two distinct
// configs), and the rest is appended member by member: the integers
// through strconv, a string directly unless encoding/json would escape
// it (sweep.AppendString). The server passes experiment.ModelEpoch as
// epoch.
func appendJobKey(dst []byte, c *sweep.Cell, configTail []byte, scale experiment.Scale, epoch int) []byte {
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
	if epoch != 0 {
		// The member goes inside the closing brace configTail ends with.
		b = strconv.AppendInt(append(b[:len(b)-1], `,"ModelEpoch":`...), int64(epoch), 10)
		b = append(b, '}')
	}
	sum := sha256.Sum256(b)
	return append(dst, sum[:]...)
}

// jobID renders the short job identifier clients see: the first 16 hex
// digits of the content hash, prefixed for greppability. Identical
// submissions therefore share a job ID by construction.
func jobID(key string) string { return "j" + key[:16] }

// configMemo maps each (cores, DRAM MT/s, channels) to the end of its
// jobs' canonical encoding, `,"Config":` + json.Marshal(cfg) + `}`,
// built once and read-only after. The DRAM numbers are whatever
// integers a client sends, so the memo starts over when it holds
// configMemoCap shapes; real traffic (1–16 cores × a few speed grades)
// never gets there.
type configMemo struct {
	mu sync.Mutex
	m  map[[3]int][]byte
}

const configMemoCap = 256

func (m *configMemo) resolve(cores, mtps, channels int) ([]byte, error) {
	shape := [3]int{cores, mtps, channels}
	m.mu.Lock()
	defer m.mu.Unlock()
	if tail, ok := m.m[shape]; ok {
		return tail, nil
	}
	b, err := json.Marshal(experiment.SystemConfig(cores, mtps, channels))
	if err != nil {
		return nil, fmt.Errorf("canonical config encoding: %w", err)
	}
	tail := append(append([]byte(`,"Config":`), b...), '}')
	if m.m == nil || len(m.m) >= configMemoCap {
		m.m = make(map[[3]int][]byte)
	}
	m.m[shape] = tail
	return tail, nil
}
