package main

import (
	"bytes"
	"errors"
	"flag"
	"net"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"time"

	"dco/internal/live"
)

func TestOrderedSinkReorders(t *testing.T) {
	var buf bytes.Buffer
	s := newOrderedSink(&buf, 0)
	s.put(2, []byte("cc"))
	s.put(0, []byte("aa"))
	if buf.String() != "aa" {
		t.Fatalf("premature write: %q", buf.String())
	}
	s.put(1, []byte("bb"))
	if buf.String() != "aabbcc" {
		t.Fatalf("out-of-order output: %q", buf.String())
	}
}

func TestOrderedSinkIgnoresDuplicatesAndPast(t *testing.T) {
	var buf bytes.Buffer
	s := newOrderedSink(&buf, 5)
	s.put(4, []byte("old")) // before the start sequence
	s.put(5, []byte("x"))
	s.put(5, []byte("dup")) // already flushed
	s.put(6, []byte("y"))
	if buf.String() != "xy" {
		t.Fatalf("got %q, want %q", buf.String(), "xy")
	}
}

func TestOrderedSinkStartOffset(t *testing.T) {
	var buf bytes.Buffer
	s := newOrderedSink(&buf, 10)
	s.put(11, []byte("b"))
	s.put(10, []byte("a"))
	s.put(12, []byte("c"))
	if buf.String() != "abc" {
		t.Fatalf("offset stream wrong: %q", buf.String())
	}
}

// parse runs parseFlags on a fresh flag set.
func parse(t *testing.T, args ...string) (live.Config, options, *flag.FlagSet) {
	t.Helper()
	fs := flag.NewFlagSet("dconode", flag.ContinueOnError)
	cfg, o, err := parseFlags(fs, args)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, o, fs
}

// TestFlagDefaultsAreDefaultNodeConfig: parsing no arguments leaves
// DefaultNodeConfig as it is, save dconode's chunk period, and the flag
// count is the one DESIGN.md states.
func TestFlagDefaultsAreDefaultNodeConfig(t *testing.T) {
	cfg, _, fs := parse(t)
	want := live.DefaultNodeConfig()
	want.Channel.Period = defaultPeriod
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("no flags give\n%+v\nwant DefaultNodeConfig\n%+v", cfg, want)
	}

	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("`dconode` has (\\d+) flags").FindSubmatch(doc)
	if m == nil {
		t.Fatal("DESIGN.md does not state dconode's flag count")
	}
	flags := 0
	fs.VisitAll(func(*flag.Flag) { flags++ })
	if stated, _ := strconv.Atoi(string(m[1])); flags != stated {
		t.Errorf("dconode has %d flags, DESIGN.md says %d", flags, stated)
	}
}

// TestIOReadTimeoutSurvivesFaultInjection: -io-read-timeout reaches the TCP
// listener even when a -fault-* flag wraps it, so an idle connection is
// reclaimed after a second instead of the transport's two-minute default.
func TestIOReadTimeoutSurvivesFaultInjection(t *testing.T) {
	cfg, o, _ := parse(t, "-fault-drop", "0.1", "-io-read-timeout", "1s")
	node, err := live.NewNode(cfg, o.attach(nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })

	conn, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	_ = conn.SetReadDeadline(start.Add(10 * time.Second))
	_, err = conn.Read(make([]byte, 1))
	elapsed := time.Since(start)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("idle connection still open after %v: the read timeout never reached the listener", elapsed)
	}
	if err == nil || elapsed < 500*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("idle connection ended after %v (err %v), want about 1s", elapsed, err)
	}
}
