// Package trace models the NFS workloads of the EDM evaluation (§V.A).
//
// The paper replays seven traces collected from Harvard network storage
// servers [8], extracting write, read, open and close operations. The
// raw traces are not redistributable, so this package provides seeded
// synthetic generators parameterised by the published Table I
// characteristics (file count, operation counts, mean request sizes)
// plus the two workload properties EDM exploits and the paper documents:
// heavily skewed access popularity (Zipf) and temporal locality (runs of
// operations against the same file). A plain-text codec round-trips
// traces through files for the cmd tools.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// OpKind is the operation type of a trace record.
type OpKind uint8

// Operation kinds, matching the set the paper extracts from the NFS
// traces.
const (
	OpOpen OpKind = iota
	OpClose
	OpRead
	OpWrite
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpOpen:
		return "open"
	case OpClose:
		return "close"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

func parseOpKind(s string) (OpKind, error) {
	switch s {
	case "open":
		return OpOpen, nil
	case "close":
		return OpClose, nil
	case "read":
		return OpRead, nil
	case "write":
		return OpWrite, nil
	}
	return 0, fmt.Errorf("trace: unknown op kind %q", s)
}

// FileID identifies a file within a trace (it becomes the inode number
// for hash placement).
type FileID int64

// Record is one trace operation. The fields are ordered widest first
// so a record packs into 32 bytes, two to a 64-byte cache line: a
// replay streams through millions of them.
type Record struct {
	File   FileID
	Offset int64 // bytes; meaningful for read/write
	Size   int64 // bytes; meaningful for read/write
	User   int32 // issuing user; users are sharded across clients
	Kind   OpKind
}

// FileInfo describes a traced file.
type FileInfo struct {
	ID   FileID
	Size int64 // bytes the file is pre-populated with
}

// Trace is a complete replayable workload.
type Trace struct {
	Name    string
	Users   int
	Files   []FileInfo
	Records []Record
}

// Stats summarises a trace in Table I's terms.
type Stats struct {
	FileCount    int
	WriteCount   int
	AvgWriteSize int64
	ReadCount    int
	AvgReadSize  int64
	TotalBytes   int64 // sum of file sizes
}

// Stats computes the Table I characteristics of the trace.
func (t *Trace) Stats() Stats {
	var s Stats
	s.FileCount = len(t.Files)
	var wBytes, rBytes int64
	for _, r := range t.Records {
		switch r.Kind {
		case OpWrite:
			s.WriteCount++
			wBytes += r.Size
		case OpRead:
			s.ReadCount++
			rBytes += r.Size
		}
	}
	if s.WriteCount > 0 {
		s.AvgWriteSize = wBytes / int64(s.WriteCount)
	}
	if s.ReadCount > 0 {
		s.AvgReadSize = rBytes / int64(s.ReadCount)
	}
	for _, f := range t.Files {
		s.TotalBytes += f.Size
	}
	return s
}

// Encode writes the trace in the package's text format:
//
//	trace <name> users=<n>
//	file <id> <size>
//	op <user> <file> <kind> <offset> <size>
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "trace %s users=%d\n", t.Name, t.Users); err != nil {
		return err
	}
	for _, f := range t.Files {
		if _, err := fmt.Fprintf(bw, "file %d %d\n", f.ID, f.Size); err != nil {
			return err
		}
	}
	for _, r := range t.Records {
		if _, err := fmt.Fprintf(bw, "op %d %d %s %d %d\n", r.User, r.File, r.Kind, r.Offset, r.Size); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode parses the text format produced by Encode.
func Decode(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	t := &Trace{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "trace":
			if len(fields) != 3 || !strings.HasPrefix(fields[2], "users=") {
				return nil, fmt.Errorf("trace: line %d: malformed header", line)
			}
			t.Name = fields[1]
			n, err := strconv.Atoi(strings.TrimPrefix(fields[2], "users="))
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad user count: %v", line, err)
			}
			t.Users = n
		case "file":
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace: line %d: malformed file", line)
			}
			id, err1 := strconv.ParseInt(fields[1], 10, 64)
			size, err2 := strconv.ParseInt(fields[2], 10, 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("trace: line %d: bad file fields", line)
			}
			t.Files = append(t.Files, FileInfo{ID: FileID(id), Size: size})
		case "op":
			if len(fields) != 6 {
				return nil, fmt.Errorf("trace: line %d: malformed op", line)
			}
			user, err1 := strconv.ParseInt(fields[1], 10, 32)
			file, err2 := strconv.ParseInt(fields[2], 10, 64)
			kind, err3 := parseOpKind(fields[3])
			off, err4 := strconv.ParseInt(fields[4], 10, 64)
			size, err5 := strconv.ParseInt(fields[5], 10, 64)
			for _, err := range []error{err1, err2, err3, err4, err5} {
				if err != nil {
					return nil, fmt.Errorf("trace: line %d: %v", line, err)
				}
			}
			t.Records = append(t.Records, Record{
				User: int32(user), File: FileID(file), Kind: kind, Offset: off, Size: size,
			})
		default:
			return nil, fmt.Errorf("trace: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if t.Name == "" {
		return nil, fmt.Errorf("trace: missing header")
	}
	return t, nil
}

// Validate checks internal consistency: ops reference declared files and
// stay within non-negative ranges, and user ids are non-negative and
// below the declared user count, if any.
func (t *Trace) Validate() error {
	if t.Users < 0 {
		return fmt.Errorf("trace: negative user count %d", t.Users)
	}
	sizes := make(map[FileID]int64, len(t.Files))
	for _, f := range t.Files {
		if f.ID < 0 || f.Size < 0 {
			return fmt.Errorf("trace: file %d has a negative id or size", f.ID)
		}
		if _, dup := sizes[f.ID]; dup {
			return fmt.Errorf("trace: duplicate file %d", f.ID)
		}
		sizes[f.ID] = f.Size
	}
	for i, r := range t.Records {
		if _, ok := sizes[r.File]; !ok {
			return fmt.Errorf("trace: record %d references undeclared file %d", i, r.File)
		}
		if r.Offset < 0 || r.Size < 0 {
			return fmt.Errorf("trace: record %d has negative offset/size", i)
		}
		if r.User < 0 || t.Users > 0 && int(r.User) >= t.Users {
			return fmt.Errorf("trace: record %d user %d out of range [0,%d)", i, r.User, t.Users)
		}
	}
	return nil
}
