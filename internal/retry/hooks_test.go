package retry

import (
	"errors"
	"testing"
	"time"
)

func TestRetrierOnRetryHook(t *testing.T) {
	r := New(Policy{MaxAttempts: 4, InitialBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}, nil, 1)
	type retryEvt struct {
		addr    string
		attempt int
		pause   time.Duration
	}
	var seen []retryEvt
	r.SetOnRetry(func(addr string, attempt int, pause time.Duration, err error) {
		if err == nil {
			t.Error("hook must carry the failing error")
		}
		seen = append(seen, retryEvt{addr, attempt, pause})
	})
	calls := 0
	err := r.Do(nil, "peer-a", nil, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("hook fired %d times, want 2 (attempts before the successful third)", len(seen))
	}
	for i, e := range seen {
		if e.addr != "peer-a" || e.attempt != i+1 || e.pause <= 0 {
			t.Fatalf("hook event %d = %+v", i, e)
		}
	}
}
