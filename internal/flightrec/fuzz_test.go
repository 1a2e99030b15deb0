package flightrec

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// seedRecording builds a small but representative recording covering
// the header and several event kinds, serialized by the real writer.
func seedRecording(t testing.TB) []byte {
	t.Helper()
	l := &Log{
		Meta: Meta{
			Schema: Schema, Label: "fuzz-seed", Seed: 7,
			Design: "Partitioned+AdaptiveFRF", Profiling: "hybrid",
			Policy: "gto", SMs: 2, ChecksumEvery: 64,
		},
		Events: []Event{
			{Cycle: 0, SM: -1, Kind: KindKernelBegin, Warp: -1, PC: -1, A: 2, Detail: "seed"},
			{Cycle: 3, SM: 0, Kind: KindIssue, Warp: 1, PC: 4, A: 9},
			{Cycle: 64, SM: 0, Kind: KindChecksum, Warp: -1, PC: -1, A: 0xdeadbeef, B: 12},
			{Cycle: 64, SM: 0, Kind: KindReadHash, Warp: -1, PC: -1, A: 0xfeedface, B: 34},
			{Cycle: 70, SM: -1, Kind: KindKernelEnd, Warp: -1, PC: -1},
		},
	}
	var buf bytes.Buffer
	if err := l.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadNDJSON hammers the recording reader with mutated inputs: it
// must never panic, and anything it accepts must round-trip through the
// writer byte-for-byte at the structural level (same meta, same events).
func FuzzReadNDJSON(f *testing.F) {
	f.Add(seedRecording(f))
	f.Add([]byte(""))
	f.Add([]byte("{\"schema\":\"" + Schema + "\"}\n"))
	f.Add([]byte("{\"schema\":\"" + Schema + "\"}\n{\"c\":1,\"sm\":0,\"k\":3,\"w\":0,\"pc\":0}\n"))
	f.Add([]byte("{\"schema\":\"bogus/v9\"}\n"))
	f.Add([]byte("not json at all\n{}\n"))
	f.Add([]byte("{\"schema\":\"" + Schema + "\"}\n\n\n{\"c\":-5,\"sm\":-1,\"k\":255,\"w\":-1,\"pc\":-1,\"a\":18446744073709551615}\n"))
	// Lines off the fast parser's canonical path: each must decode as
	// encoding/json decodes it (or fail as it fails).
	hdr := "{\"schema\":\"" + Schema + "\"}\n"
	for _, line := range []string{
		`{"sm":0,"c":3,"k":"issue","w":1,"pc":4,"a":9}`,
		`{"c":3,"sm":0,"k":"issue","w":1,"pc":4,"a":0,"b":0}`,
		`{"c":3, "sm":0,"k":"issue","w":1,"pc":4}`,
		`{"c":3,"sm":0,"k":"issue","w":1,"pc":4,"d":"\u003cA\u0026B\u003e"}`,
		`{"c":3,"sm":0,"k":"issue","w":1,"pc":4,"d":"<A&B>"}`,
		`{"c":3,"sm":0,"k":"issue","w":1,"pc":4,"d":"q\"uo\\te \u00e9 é"}`,
		`{"c":3,"sm":0,"k":"iss\u0075e","w":1,"pc":4}`,
		`{"c":9223372036854775808,"sm":0,"k":"issue","w":1,"pc":4}`,
		`{"c":-9223372036854775808,"sm":0,"k":"issue","w":1,"pc":4}`,
		`{"c":1,"sm":0,"k":"issue","w":1,"pc":4,"a":18446744073709551616}`,
		`{"c":1,"sm":0,"k":"issue","w":1,"pc":4,"a":-1}`,
		`{"c":-0,"sm":00,"k":"issue","w":1,"pc":4}`,
		`{"c":1,"sm":0,"k":"issue","w":1,"pc":4,"d":""}`,
		`{"c":1,"sm":0,"k":"issue","w":1,"pc":4,"x":1}`,
		`{"c":1,"sm":0,"k":"issue","w":1,"pc":4} `,
		`{"C":1,"SM":0,"K":"issue","W":1,"PC":4}`,
	} {
		f.Add([]byte(hdr + line + "\n"))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Differential property: whenever the fast parser accepts a
		// line, encoding/json decodes it to the same event, and the
		// writer spells that event back as exactly that line.
		for _, line := range bytes.Split(data, []byte("\n")) {
			got, ok := parseEvent(line, map[string]string{})
			if !ok {
				continue
			}
			var want Event
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatalf("fast parser accepted %q, encoding/json rejects it: %v", line, err)
			}
			if got != want {
				t.Fatalf("fast parser read %q as %+v, encoding/json as %+v", line, got, want)
			}
			if enc := appendEvent(nil, &got); !bytes.Equal(enc, append(line, '\n')) {
				t.Fatalf("accepted line %q re-encodes as %q", line, enc)
			}
		}

		l, err := ReadNDJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if l.Meta.Schema != Schema {
			t.Fatalf("accepted recording with schema %q", l.Meta.Schema)
		}
		var buf bytes.Buffer
		if err := l.WriteNDJSON(&buf); err != nil {
			t.Fatalf("re-serializing an accepted recording: %v", err)
		}
		l2, err := ReadNDJSON(&buf)
		if err != nil {
			t.Fatalf("round-trip of an accepted recording failed: %v", err)
		}
		if !reflect.DeepEqual(l.Meta, l2.Meta) {
			t.Fatalf("meta round-trip drift:\n%+v\n%+v", l.Meta, l2.Meta)
		}
		if len(l.Events) != len(l2.Events) {
			t.Fatalf("event count drift: %d -> %d", len(l.Events), len(l2.Events))
		}
		for i := range l.Events {
			if l.Events[i] != l2.Events[i] {
				t.Fatalf("event %d drift: %+v -> %+v", i, l.Events[i], l2.Events[i])
			}
		}
	})
}

// TestWriteNDJSONMatchesEncoder pins the append-based writer to the
// bytes json.Encoder produces for the same recording, over details that
// need escaping and fields at their numeric extremes.
func TestWriteNDJSONMatchesEncoder(t *testing.T) {
	details := []string{
		"", "ADD", "kernel-launch", "a<b", "c>d", "a&b", `say "hi"`, `back\slash`,
		"naïve ✓", "t\tb", "n\nl", "\r\b\f", "x\x01", "\x1f", "del\x7f", "\u2028", "p\u2029",
		"bad\xffutf8",
	}
	l := &Log{Meta: Meta{Schema: Schema, Label: "<enc&test>", SMs: 1, ChecksumEvery: 64}}
	for i, d := range details {
		l.Events = append(l.Events, Event{
			Cycle: int64(i) - 3, SM: i%3 - 1, Kind: Kind(i % int(numKinds+2)),
			Warp: i - 1, PC: -i, A: uint64(i), B: math.MaxUint64 >> uint(i), Detail: d,
		})
	}
	l.Events = append(l.Events,
		Event{Cycle: math.MinInt64, SM: math.MinInt, Warp: math.MaxInt, PC: math.MinInt, A: math.MaxUint64},
		Event{Cycle: math.MaxInt64, Kind: KindChecksum})

	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	if err := enc.Encode(l.Meta); err != nil {
		t.Fatal(err)
	}
	for _, e := range l.Events {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	var got bytes.Buffer
	if err := l.WriteNDJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("writer drifted from json.Encoder:\n got %q\nwant %q", got.Bytes(), want.Bytes())
	}
}
