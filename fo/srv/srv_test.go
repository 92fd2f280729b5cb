package srv_test

import (
	"context"
	"testing"
	"time"

	"focc/fo"
	"focc/fo/srv"
)

// TestConstructorsServe drives each public server constructor through one
// legitimate request and the documented attack under failure-oblivious
// execution — the instance must survive both.
func TestConstructorsServe(t *testing.T) {
	for _, s := range srv.Servers() {
		inst, err := s.New(fo.FailureOblivious)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if resp := inst.Handle(s.LegitRequests()[0]); !resp.OK() {
			t.Errorf("%s legit request: %v", s.Name(), resp)
		}
		if resp := srv.Handle(context.Background(), inst, s.AttackRequest()); resp.Crashed() {
			t.Errorf("%s attack crashed failure-oblivious instance: %v", s.Name(), resp)
		}
		if !inst.Alive() {
			t.Errorf("%s instance dead after attack", s.Name())
		}
	}
}

// TestEngineThroughPublicAPI exercises the full serving quickstart: an
// engine built only from fo/srv symbols serving legit and attack traffic.
func TestEngineThroughPublicAPI(t *testing.T) {
	apacheSrv := newServer(t, "apache")
	eng, err := srv.NewEngine(apacheSrv, fo.FailureOblivious,
		srv.WithPoolSize(2),
		srv.WithQueueDepth(8),
		srv.WithDeadline(5*time.Second),
		srv.WithBackoff(time.Millisecond, 10*time.Millisecond),
		srv.WithBreaker(4, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 3; i++ {
		resp, err := eng.Submit(context.Background(), apacheSrv.LegitRequests()[0])
		if err != nil {
			t.Fatal(err)
		}
		if !resp.OK() {
			t.Fatalf("legit request: %v", resp)
		}
		if _, err := eng.Submit(context.Background(), apacheSrv.AttackRequest()); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Crashes != 0 || st.Restarts != 0 {
		t.Errorf("failure-oblivious engine crashed %d / restarted %d, want 0",
			st.Crashes, st.Restarts)
	}
	if st.Served != 6 {
		t.Errorf("served = %d, want 6", st.Served)
	}
}

// newServer returns the registered server model called name, failing the
// test if the registry does not know it.
func newServer(t *testing.T, name string) srv.Server {
	t.Helper()
	s, err := srv.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
