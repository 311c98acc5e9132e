// Package jsonl is the one file format of the repository's record streams:
// trace events, fpDNS tuples, query-log events and explain records are
// each written as JSON lines, one encoding/json value per line. A file
// whose name ends in ".gz" is gzip-compressed, and readers sniff the gzip
// magic bytes regardless of the name.
package jsonl

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"strings"
	"sync"
)

// bufSize is the write buffer and the read-ahead of a sniffed stream.
const bufSize = 1 << 16

// Writer streams values of type T as JSON lines. Write is safe for
// concurrent use, so several producers may share one writer. The first
// error the writer meets is kept: every later Write, Flush and Close
// returns it.
type Writer[T any] struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	enc   *json.Encoder
	gz    *gzip.Writer // nil for a plain stream
	file  io.Closer    // the file Create opened; nil under NewWriter
	count uint64
	err   error
}

// NewWriter writes plain JSON lines to w. The caller keeps w: Close
// flushes into it but does not close it.
func NewWriter[T any](w io.Writer) *Writer[T] {
	return newWriter[T](w, nil, nil)
}

// Create creates path and returns a writer that owns the file. A name
// ending in ".gz" gzip-compresses.
func Create[T any](path string) (*Writer[T], error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return newWriter[T](f, nil, f), nil
	}
	gz := gzip.NewWriter(f)
	return newWriter[T](gz, gz, f), nil
}

func newWriter[T any](w io.Writer, gz *gzip.Writer, file io.Closer) *Writer[T] {
	bw := bufio.NewWriterSize(w, bufSize)
	return &Writer[T]{bw: bw, enc: json.NewEncoder(bw), gz: gz, file: file}
}

// Write appends v as one line.
func (w *Writer[T]) Write(v *T) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.err = w.enc.Encode(v); w.err != nil {
		return w.err
	}
	w.count++
	return nil
}

// Count returns how many values have been written.
func (w *Writer[T]) Count() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}

// Flush pushes every buffered line to the underlying writer; a gzip stream
// is sync-flushed, so a reader sees every line written so far while the
// stream stays open.
func (w *Writer[T]) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	if w.err == nil && w.gz != nil {
		w.err = w.gz.Flush()
	}
	return w.err
}

// Close flushes, ends a gzip stream, closes the file Create opened, and
// returns the first error of the writer's life.
func (w *Writer[T]) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	if w.gz != nil {
		if err := w.gz.Close(); w.err == nil {
			w.err = err
		}
		w.gz = nil
	}
	if w.file != nil {
		if err := w.file.Close(); w.err == nil {
			w.err = err
		}
		w.file = nil
	}
	return w.err
}

// Sniff returns r's bytes, decompressed when they begin with the gzip
// magic.
func Sniff(r io.Reader) (io.Reader, error) {
	br := bufio.NewReaderSize(r, bufSize)
	if head, err := br.Peek(2); err == nil && head[0] == 0x1f && head[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, err
		}
		return gz, nil
	}
	return br, nil
}

// Read decodes every value of a JSON-lines stream, plain or gzip. On a
// malformed value it returns the values before it and the error.
func Read[T any](r io.Reader) ([]T, error) {
	src, err := Sniff(r)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(src)
	var out []T
	for {
		var v T
		if err := dec.Decode(&v); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		out = append(out, v)
	}
}

// Open reads the JSON-lines file at path.
func Open[T any](path string) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read[T](f)
}
