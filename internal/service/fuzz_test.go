package service

import (
	"bytes"
	"encoding/json"
	"testing"
)

// decodeStrict decodes a job spec the way both HTTP handlers do.
func decodeStrict(body []byte) (*JobSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var spec JobSpec
	return &spec, dec.Decode(&spec)
}

// FuzzJobSpec drives arbitrary request bodies through decode → ConfigKey →
// marshal → decode → ConfigKey. Nothing may panic, and a spec that
// normalizes once must normalize again to the same key: Normalize is
// idempotent over its own canonical JSON, which is also what makes a
// sparse spec and its explicit form hash alike. The canonical form is what
// sinetd journals and what SplitSpec copies, so a spec breaking this
// property would be accepted once and then rejected on replay or split.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"passive"}`,
		`{"kind":"active"}`,
		`{"kind":"coverage"}`,
		`{"kind":"backhaul"}`,
		`{"kind":"routing"}`,
		`{"kind":"passive","shard":{"index":1,"count":2}}`,
		`{"kind":"passive","active":{"seed":1}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeStrict(body)
		if err != nil {
			return
		}
		key, err := ConfigKey(spec)
		if err != nil {
			return
		}
		canonical, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal normalized spec: %v", err)
		}
		again, err := decodeStrict(canonical)
		if err != nil {
			t.Fatalf("decode canonical spec %s: %v", canonical, err)
		}
		key2, err := ConfigKey(again)
		if err != nil {
			t.Fatalf("spec %s normalized once, then failed on its canonical form %s: %v", body, canonical, err)
		}
		if key2 != key {
			t.Fatalf("spec %s keyed %s, its canonical form %s keyed %s", body, key, canonical, key2)
		}
	})
}
