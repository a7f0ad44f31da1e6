package provenance

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// This file is the binary record format DBStore keeps events in. JSON stays
// the format of traces (WriteTrace, ParseTrace, the CLI's -prov files); a log
// record is read back far more often than a person looks at it, and
// encoding/json's reflection was most of what a query over a DBStore cost.
//
// A record is the version byte, then the type code (an unknown type is code
// 0 followed by the type as a string), then every other field of Event in
// declaration order:
//
//	string       uvarint length, bytes
//	int          zig-zag varint
//	float64      math.Float64bits, 8 bytes little-endian
//	bool         all of them in one byte, Succeeded = 1, MemoHit = 2
//	[]FileEvent  uvarint: 0 for nil, else count+1; then each entry's fields
//
// The two bools travel together, in Succeeded's place. A field added to Event
// or FileEvent needs a new version; TestEventCodecRoundTrip fills both by
// reflection and fails until the codec carries it. Version 1 also held the ID.

const eventVersion = 2

// eventTypes maps type codes to types; code 0 spells the type out.
var eventTypes = [...]EventType{1: WorkflowStart, 2: WorkflowEnd, 3: TaskStart, 4: TaskEnd, 5: WorkflowResumed}

const (
	flagSucceeded = 1 << iota
	flagMemoHit
)

// minFileEventLen is the shortest encoding of a FileEvent: two empty strings
// and two floats. It bounds a file count by the bytes left to decode.
const minFileEventLen = 1 + 8 + 1 + 8

// appendEvent appends ev's record to b.
func appendEvent(b []byte, ev *Event) []byte {
	b = append(b, eventVersion)
	code := byte(0)
	for c := 1; c < len(eventTypes); c++ {
		if eventTypes[c] == ev.Type {
			code = byte(c)
		}
	}
	b = append(b, code)
	if code == 0 {
		b = appendString(b, string(ev.Type))
	}
	b = appendFloat(b, ev.Timestamp)
	b = appendString(b, ev.WorkflowID)
	b = appendString(b, ev.WorkflowName)
	b = binary.AppendVarint(b, ev.TaskID)
	b = binary.AppendVarint(b, int64(ev.Attempt))
	b = appendString(b, ev.Signature)
	b = appendString(b, ev.Command)
	b = appendString(b, ev.Node)
	b = binary.AppendVarint(b, int64(ev.ExitCode))
	b = appendString(b, ev.Error)
	b = appendString(b, ev.Stdout)
	b = appendString(b, ev.Stderr)
	b = appendFloat(b, ev.DurationSec)
	b = appendFloat(b, ev.StageInSec)
	b = appendFloat(b, ev.ExecSec)
	b = appendFloat(b, ev.StageOutSec)
	b = appendFloat(b, ev.CPUSeconds)
	b = binary.AppendVarint(b, int64(ev.Threads))
	b = binary.AppendVarint(b, int64(ev.MemMB))
	b = appendFiles(b, ev.Inputs)
	b = appendFiles(b, ev.Outputs)
	flags := byte(0)
	if ev.Succeeded {
		flags |= flagSucceeded
	}
	if ev.MemoHit {
		flags |= flagMemoHit
	}
	b = append(b, flags)
	b = binary.AppendVarint(b, int64(ev.Recovered))
	return appendString(b, ev.MemoSource)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendFiles(b []byte, files []FileEvent) []byte {
	if files == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(files))+1)
	for i := range files {
		f := &files[i]
		b = appendString(b, f.Path)
		b = appendFloat(b, f.SizeMB)
		b = appendString(b, f.Param)
		b = appendFloat(b, f.TransferSec)
	}
	return b
}

// decodeEvent decodes one record into ev, overwriting every field. A provdb
// file is outside input: every length is checked against the bytes that are
// left before anything is allocated, and bytes left over are an error. What
// ev points to afterwards is freshly allocated; nothing aliases b.
func decodeEvent(b []byte, ev *Event) error {
	if len(b) < 2 {
		return errors.New("record too short")
	}
	if b[0] != eventVersion {
		return fmt.Errorf("unknown record version %#02x", b[0])
	}
	r := eventReader{b: b[2:]}
	switch code := int(b[1]); {
	case code == 0:
		ev.Type = EventType(r.string())
	case code < len(eventTypes):
		ev.Type = eventTypes[code]
	default:
		return fmt.Errorf("unknown event type code %d", code)
	}
	ev.Timestamp = r.float()
	ev.WorkflowID = r.string()
	ev.WorkflowName = r.string()
	ev.TaskID = r.varint()
	ev.Attempt = r.int()
	ev.Signature = r.string()
	ev.Command = r.string()
	ev.Node = r.string()
	ev.ExitCode = r.int()
	ev.Error = r.string()
	ev.Stdout = r.string()
	ev.Stderr = r.string()
	ev.DurationSec = r.float()
	ev.StageInSec = r.float()
	ev.ExecSec = r.float()
	ev.StageOutSec = r.float()
	ev.CPUSeconds = r.float()
	ev.Threads = r.int()
	ev.MemMB = r.int()
	ev.Inputs = r.files()
	ev.Outputs = r.files()
	flags := r.byte()
	if flags&^(flagSucceeded|flagMemoHit) != 0 {
		r.fail("unknown flag bits")
	}
	ev.Succeeded = flags&flagSucceeded != 0
	ev.MemoHit = flags&flagMemoHit != 0
	ev.Recovered = r.int()
	ev.MemoSource = r.string()
	if r.err == nil && len(r.b) > 0 {
		r.fail("trailing bytes")
	}
	return r.err
}

// eventReader consumes a record front to back. The first failure sticks:
// every read after it returns a zero value and consumes nothing.
type eventReader struct {
	b   []byte
	err error
}

func (r *eventReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%s, %d bytes from the end of the record", what, len(r.b))
	}
	r.b = nil
}

func (r *eventReader) byte() byte {
	if len(r.b) < 1 {
		r.fail("truncated byte")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *eventReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *eventReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *eventReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail("integer overflows int")
		return 0
	}
	return int(v)
}

func (r *eventReader) float() float64 {
	if len(r.b) < 8 {
		r.fail("truncated float")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return f
}

func (r *eventReader) string() string {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail("string length exceeds the record")
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *eventReader) files() []FileEvent {
	n := r.uvarint()
	if n == 0 {
		return nil
	}
	n--
	if n > uint64(len(r.b)/minFileEventLen) {
		r.fail("file count exceeds the record")
		return nil
	}
	files := make([]FileEvent, n)
	for i := range files {
		f := &files[i]
		f.Path = r.string()
		f.SizeMB = r.float()
		f.Param = r.string()
		f.TransferSec = r.float()
	}
	return files
}
