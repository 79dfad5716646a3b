package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/core"
)

func sampleUploads() []core.Upload {
	return []core.Upload{
		{MCName: "mc-a", EventID: 1, Start: 10, End: 20, Bits: 4096, Final: false},
		{MCName: "mc-a", EventID: 1, Start: 20, End: 25, Bits: 2048, Final: true},
		{MCName: "mc-b", EventID: 1, Start: 12, End: 18, Bits: 999, Final: true},
	}
}

// send is the sending end of an upload stream built from the framing
// primitives: header, one KindUpload record per upload, goodbye.
func send(w io.Writer, ups []core.Upload) error {
	if err := WriteHeader(w, Version2); err != nil {
		return err
	}
	for _, u := range ups {
		if err := WriteRecord(w, KindUpload, ToRecord(u)); err != nil {
			return err
		}
	}
	return WriteRecord(w, KindBye, struct{}{})
}

// receive is the matching receiving end: it validates the header, then
// accepts upload records into dc until goodbye or a clean end of
// stream. Any framing, version, or decode error ends it.
func receive(r io.Reader, dc *core.Datacenter) error {
	if _, err := ReadHeader(r); err != nil {
		return err
	}
	for {
		kind, body, err := ReadRecord(r)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		switch kind {
		case KindUpload:
			var rec UploadRecord
			if err := DecodeRecord(body, &rec); err != nil {
				return err
			}
			dc.Receive(rec.ToUpload())
		case KindBye:
			return nil
		default:
			return fmt.Errorf("unexpected record kind %d", kind)
		}
	}
}

// receiveFrom runs receive on the server end of a pipe while write
// feeds the client end, returning the receiver's error.
func receiveFrom(write func(c net.Conn)) error {
	cConn, sConn := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- receive(sConn, core.NewDatacenter()) }()
	go func() {
		write(cConn)
		cConn.Close()
	}()
	return <-done
}

func TestRoundTripOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dc := core.NewDatacenter()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		done <- receive(conn, dc)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := send(conn, sampleUploads()); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("receiver: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver did not finish")
	}

	got := dc.Uploads("mc-a")
	if n := len(got) + len(dc.Uploads("mc-b")); n != 3 {
		t.Fatalf("received %d uploads, want 3", n)
	}
	if len(got) != 2 || got[0].Start != 10 || got[1].End != 25 || !got[1].Final {
		t.Fatalf("mc-a uploads wrong: %+v", got)
	}
	labels := dc.PredictedLabels("mc-b", 30)
	for i := 12; i < 18; i++ {
		if !labels[i] {
			t.Fatalf("mc-b frame %d missing", i)
		}
	}
}

func TestRoundTripOverPipe(t *testing.T) {
	cConn, sConn := net.Pipe()
	dc := core.NewDatacenter()

	done := make(chan error, 1)
	go func() { done <- receive(sConn, dc) }()

	if err := send(cConn, sampleUploads()[:1]); err != nil {
		t.Fatal(err)
	}
	if err := cConn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("receiver: %v", err)
	}
	if len(dc.Uploads("mc-a")) != 1 {
		t.Fatal("upload not delivered")
	}
}

func TestServerRejectsBadMagic(t *testing.T) {
	err := receiveFrom(func(c net.Conn) { c.Write([]byte{0, 1, 2, 3, 4, 5}) })
	if err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestServerRejectsOversizedRecord(t *testing.T) {
	err := receiveFrom(func(c net.Conn) {
		// Valid handshake, then a record header claiming 1 GB.
		WriteHeader(c, Version2)
		c.Write([]byte{KindUpload, 0x40, 0x00, 0x00, 0x00, 0, 0, 0, 0})
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized record error = %v, want ErrCorrupt", err)
	}
}

func TestServerRejectsUnsupportedVersion(t *testing.T) {
	// Version above MaxVersion fails in ReadHeader.
	err := receiveFrom(func(c net.Conn) {
		c.Write([]byte{0xFF, 0x00, 0xFF, 0x05, 0x00, 0x63}) // version 99
	})
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("version 99 error = %v, want ErrVersion", err)
	}

	// Version 1 (the retired one-way pipe) is rejected the same way.
	err = receiveFrom(func(c net.Conn) { WriteHeader(c, 1) })
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("version 1 error = %v, want ErrVersion", err)
	}
}

func TestReadHeaderRejectsVersionZero(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeader(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHeader(&buf); !errors.Is(err, ErrVersion) {
		t.Fatalf("version 0 error = %v, want ErrVersion", err)
	}
}

func TestServerRejectsTruncatedStream(t *testing.T) {
	err := receiveFrom(func(c net.Conn) {
		// Valid handshake, then a record whose 100-byte payload is
		// cut off after 10 bytes.
		WriteHeader(c, Version2)
		c.Write([]byte{KindUpload, 0x00, 0x00, 0x00, 0x64})
		c.Write(make([]byte, 10))
	})
	if err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestServerRejectsTruncatedHandshake(t *testing.T) {
	err := receiveFrom(func(c net.Conn) { c.Write([]byte{0xFF, 0x00}) })
	if err == nil {
		t.Fatal("truncated handshake accepted")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := UploadRecord{MCName: "rt", EventID: 9, Start: 4, End: 8, Bits: 321, Final: true}
	if err := WriteRecord(&buf, KindUpload, want); err != nil {
		t.Fatal(err)
	}
	kind, body, err := ReadRecord(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindUpload {
		t.Fatalf("kind = %d, want %d", kind, KindUpload)
	}
	var got UploadRecord
	if err := DecodeRecord(body, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip changed record: %+v vs %+v", got, want)
	}
	// A clean end of stream at a record boundary is io.EOF.
	if _, _, err := ReadRecord(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream error = %v, want io.EOF", err)
	}
}

func TestReadRecordTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRecord(&buf, KindUpload, UploadRecord{MCName: "x"}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	// Cut mid-payload: io.ErrUnexpectedEOF, not a clean EOF.
	if _, _, err := ReadRecord(bytes.NewReader(whole[:len(whole)-2])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("mid-payload truncation error = %v, want io.ErrUnexpectedEOF", err)
	}
	// Cut mid-header: also not a clean EOF.
	if _, _, err := ReadRecord(bytes.NewReader(whole[:3])); errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatal("mid-header truncation reported a clean EOF")
	}
}

// TestReadRecordDeadlineProgress pins the liveness semantics: the
// timeout bounds silence between arrivals, not total record transfer
// time. A record trickling in slowly must survive as long as each gap
// stays under the window; a silent peer must still time out.
func TestReadRecordDeadlineProgress(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRecord(&buf, KindUpload, UploadRecord{MCName: "slow", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	cConn, sConn := net.Pipe()
	defer cConn.Close()
	go func() {
		// Trickle the record in 4 parts with 30ms gaps: total transfer
		// ~90ms, well past the 60ms silence window below.
		step := len(whole)/4 + 1
		for lo := 0; lo < len(whole); lo += step {
			hi := lo + step
			if hi > len(whole) {
				hi = len(whole)
			}
			cConn.Write(whole[lo:hi])
			time.Sleep(30 * time.Millisecond)
		}
	}()
	kind, body, err := ReadRecordDeadline(sConn, 60*time.Millisecond)
	if err != nil {
		t.Fatalf("trickled record timed out despite steady progress: %v", err)
	}
	var rec UploadRecord
	if kind != KindUpload || DecodeRecord(body, &rec) != nil || rec.MCName != "slow" {
		t.Fatalf("trickled record mangled: kind %d, rec %+v", kind, rec)
	}

	// Silence still times out.
	if _, _, err := ReadRecordDeadline(sConn, 50*time.Millisecond); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("silent peer error = %v, want os.ErrDeadlineExceeded", err)
	}
}

func TestUploadRecordConversion(t *testing.T) {
	u := core.Upload{MCName: "x", EventID: 7, Start: 1, End: 9, Bits: 55, Final: true}
	back := ToRecord(u).ToUpload()
	if back.MCName != u.MCName || back.EventID != u.EventID || back.Start != u.Start ||
		back.End != u.End || back.Bits != u.Bits || back.Final != u.Final {
		t.Fatalf("round trip changed upload: %+v vs %+v", back, u)
	}
}
