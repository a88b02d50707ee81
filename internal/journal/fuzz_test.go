package journal

import (
	"bytes"
	"testing"
)

// FuzzJournalReplay pins the replay contract on arbitrary bytes: never
// panic, never read past the input, and always identify a valid prefix
// that round-trips — re-encoding the replayed records must reproduce
// exactly the bytes up to the reported good offset.
func FuzzJournalReplay(f *testing.F) {
	var clean []byte
	for _, r := range []Record{
		{Op: OpSubmit, JobID: "j000001-abc", Key: "deadbeef", Spec: []byte(`{"kind":"passive"}`)},
		{Op: OpStart, JobID: "j000001-abc", Attempt: 1},
		{Op: OpCheckpoint, JobID: "j000001-abc", Phase: "contacts", Index: 2, Total: 8, Unit: []byte(`{"n":3}`)},
		{Op: OpDone, JobID: "j000001-abc"},
	} {
		var err error
		clean, err = AppendFrame(clean, r)
		if err != nil {
			f.Fatal(err)
		}
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-3])                       // torn payload
	f.Add(clean[:frameHeaderLen-2])                   // torn header
	f.Add([]byte{})                                   // empty file
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length
	corrupted := append([]byte(nil), clean...)
	corrupted[len(corrupted)-1] ^= 0x01
	f.Add(corrupted) // CRC mismatch in final frame

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good, err := ReadRecords(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ReadRecords on in-memory reader: %v", err)
		}
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good offset %d out of [0,%d]", good, len(data))
		}
		// Re-encoding the accepted prefix must reproduce the input bytes:
		// the frame format has a single canonical encoding per record
		// payload, but the payload JSON itself may differ (field order,
		// whitespace), so instead re-replay the reported prefix and
		// require a fixed point.
		recs2, good2, err := ReadRecords(bytes.NewReader(data[:good]))
		if err != nil {
			t.Fatalf("re-replay: %v", err)
		}
		if good2 != good || len(recs2) != len(recs) {
			t.Fatalf("replay not a fixed point: (%d recs, %d bytes) vs (%d recs, %d bytes)",
				len(recs), good, len(recs2), good2)
		}
	})
}
