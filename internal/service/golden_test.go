package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/core"
)

// TestKeyAndResultGoldens pins absolute values, one small spec per kind:
// the ConfigKey and the sha256 of the served result bytes. The
// byte-identity tests compare two paths of one build, so they cannot see a
// change in ConfigKey's canonical JSON or in a result's JSON shape; these
// goldens can. Result bytes are pinned on amd64 only, where the compiler
// does not fuse multiply-adds.
func TestKeyAndResultGoldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("result goldens are pinned on amd64; other architectures may fuse multiply-adds")
	}
	cases := []struct {
		body, key, sha string
	}{
		{
			// The EXPERIMENTS.md walkthrough spec.
			`{"kind":"passive","passive":{"seed":42,"days":1,"sites":["HK"],"constellations":["Tianqi"]}}`,
			"42759f2ccc723a8123d91ac633c64e56ea4231c303adb6492eb01fafc0ab27cd",
			"0e2fd64e80e1734592bc84b57f502759df076af9da34ec2a2ddba5904416a214",
		},
		{
			`{"kind":"active","active":{"seed":1}}`,
			"369b35ee0a4429303c3feadb0af3dc556488438c9ad5a2ecdaae74c040f0c73e",
			"d7f13d45c66f3b0f849e40dc67487a9e75ad05a18c4d0a66bdde954eac14cf14",
		},
		{
			`{"kind":"coverage"}`,
			"0645a10a7a0edbd2892191090a139a414bce918bb48ecb10477e7fb570d6adc2",
			"4a3466b74e162718598da97936ac800926d5fc7dc9c5703b26a6d30657f7d75a",
		},
		{
			`{"kind":"backhaul"}`,
			"10d775ee2ff08c702d6f3e577b78c796ff71dc91de18ca51911166925de6be5a",
			"bf9290e524c00928c8c290d1e43eeadeedf293c08cebbcc65853acf7d654b83f",
		},
		{
			`{"kind":"routing","routing":{"seed":1}}`,
			"97238e819532919de03e04a511a72e883c35b396fce70015e3515d0d3bd39f7a",
			"5324995d88956de4ad1c1f5ca79b750853d2543b8360e2e4223ed96a3a27c554",
		},
	}
	memo := core.NewMemo(64<<20, nil)
	for _, tc := range cases {
		spec, err := decodeStrict([]byte(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		t.Run(spec.Kind, func(t *testing.T) {
			key, err := ConfigKey(spec)
			if err != nil {
				t.Fatal(err)
			}
			if string(key) != tc.key {
				t.Errorf("ConfigKey = %s, want %s", key, tc.key)
			}
			res, err := Run(context.Background(), spec, RunContext{})
			if err != nil {
				t.Fatal(err)
			}
			out, err := MarshalResult(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(out)
			if got := hex.EncodeToString(sum[:]); got != tc.sha {
				t.Errorf("sha256(result) = %s, want %s", got, tc.sha)
			}
			// The same bytes through a memo, cold and then warmed.
			for _, pass := range []string{"cold", "warmed"} {
				sum := sha256.Sum256(runBytes(t, spec, RunContext{Memo: memo}))
				if got := hex.EncodeToString(sum[:]); got != tc.sha {
					t.Errorf("sha256(result) through a %s memo = %s, want %s", pass, got, tc.sha)
				}
			}
		})
	}
}

// TestServedDefaultsEqualLibrary pins the service's explicit defaults to
// the library's: the campaign defaults live twice, in core's setDefaults
// and in the literals each spec section fills in, because the API names
// some values differently from core. A sparse spec must serve the bytes of
// its core campaign run on a zero config with the same seed (the passive
// config lists only the spec's site and constellation).
func TestServedDefaultsEqualLibrary(t *testing.T) {
	hk, ok := core.SiteByCode("HK")
	if !ok {
		t.Fatal("site HK missing from the catalog")
	}
	fossa, ok := constellation.ByName("FOSSA", servingEpoch)
	if !ok {
		t.Fatal("constellation FOSSA missing from the catalog")
	}
	cases := []struct {
		body   string
		direct func() (any, error)
	}{
		{`{"kind":"passive","passive":{"seed":7,"sites":["HK"],"constellations":["FOSSA"]}}`, func() (any, error) {
			return core.RunPassive(core.PassiveConfig{Seed: 7, Sites: []core.Site{hk}, Constellations: []constellation.Constellation{fossa}})
		}},
		{`{"kind":"active","active":{"seed":7}}`, func() (any, error) { return core.RunActive(core.ActiveConfig{Seed: 7}) }},
		{`{"kind":"routing","routing":{"seed":7}}`, func() (any, error) { return core.RunRouting(core.RoutingConfig{Seed: 7}) }},
	}
	for _, tc := range cases {
		spec, err := decodeStrict([]byte(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		t.Run(spec.Kind, func(t *testing.T) {
			if _, err := ConfigKey(spec); err != nil {
				t.Fatal(err)
			}
			res, err := Run(context.Background(), spec, RunContext{})
			if err != nil {
				t.Fatal(err)
			}
			served, err := MarshalResult(res)
			if err != nil {
				t.Fatal(err)
			}
			res, err = tc.direct()
			if err != nil {
				t.Fatal(err)
			}
			direct, err := MarshalResult(res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(served, direct) {
				t.Errorf("served %d bytes differ from the zero-config library run's %d bytes", len(served), len(direct))
			}
		})
	}
}
