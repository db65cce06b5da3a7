package report

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/microarch"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
)

// TestSharedRunsMatchFreshRuns runs every experiment in pbreport's order
// on one Env, so later experiments read the runs earlier ones cached,
// and compares each result with the same experiment on a fresh Env. The
// last step asks for a 50-packet matrix after Tables V/VI cached 300 COS
// packets: a short prefix of a long run, stateful Flow Classification
// included.
func TestSharedRunsMatchFreshRuns(t *testing.T) {
	steps := []struct {
		name string
		run  func(*Env) (any, error)
	}{
		{"matrix", func(e *Env) (any, error) { return e.RunMatrix(testConfig.TablePackets) }},
		{"table4", func(e *Env) (any, error) { return e.Table4() }},
		{"table5", func(e *Env) (any, error) { return e.Variation(false) }},
		{"table6", func(e *Env) (any, error) { return e.Variation(true) }},
		{"fig3", func(e *Env) (any, error) { return e.FigureSeries(MetricInstructions) }},
		{"fig4", func(e *Env) (any, error) { return e.FigureSeries(MetricPacketAccesses) }},
		{"fig5", func(e *Env) (any, error) { return e.FigureSeries(MetricNonPacketAccesses) }},
		{"fig6", func(e *Env) (any, error) { return e.Figure6(0) }},
		{"fig7/8", func(e *Env) (any, error) { return e.BlockStatistics() }},
		{"fig9", func(e *Env) (any, error) { return e.Figure9(0) }},
		{"microarch", func(e *Env) (any, error) { return e.Microarch(testConfig.TablePackets) }},
		{"matrix after variation", func(e *Env) (any, error) { return e.RunMatrix(50) }},
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			env := NewEnv(testConfig)
			for _, st := range steps {
				got, err := st.run(env)
				if err != nil {
					t.Fatalf("%s on the shared env: %v", st.name, err)
				}
				want, err := st.run(NewEnv(testConfig))
				if err != nil {
					t.Fatalf("%s on a fresh env: %v", st.name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: shared result differs from a fresh run\nshared: %+v\nfresh:  %+v", st.name, got, want)
				}
			}
			// The last matrix read prefixes: the COS runs are still the
			// variation tables' full-length ones.
			for _, app := range AppNames {
				r := env.runs.entries[runKey{app, "COS", 0}].run
				if len(r.scalars) != testConfig.VariationPackets {
					t.Errorf("%s on COS: cache holds %d packets, want %d", app, len(r.scalars), testConfig.VariationPackets)
				}
			}
		})
	}
}

// TestSharedRunFailure checks the cache against a run that fails part
// way: it reports the fresh run's error for any request reaching the
// failing packet, serves the packets before it, and the matrix reports
// the first failing cell in table order whatever the schedule.
func TestSharedRunFailure(t *testing.T) {
	const bad = 20
	env := NewEnv(testConfig)
	mra := append([]*trace.Packet(nil), env.traces["MRA"]...)
	mra[bad] = &trace.Packet{Data: make([]byte, core.MaxPacketLen+1)}
	env.traces["MRA"] = mra

	fresh, _, wantErr := env.Run("TSA", "MRA", 50, core.Options{})
	if fresh == nil || wantErr == nil {
		t.Fatalf("fresh run: err %v, want a fault at packet %d", wantErr, bad)
	}
	_, freshRecs, _ := env.Run("TSA", "MRA", bad, core.Options{})

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	if _, err := env.shared("TSA", "MRA", 50); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("shared run: err %v, want %v", err, wantErr)
	}
	cached := env.runs.entries[runKey{"TSA", "MRA", testConfig.TablePackets}].run
	r, err := env.shared("TSA", "MRA", bad)
	if err != nil {
		t.Fatalf("prefix before the fault: %v", err)
	}
	if env.runs.entries[runKey{"TSA", "MRA", testConfig.TablePackets}].run != cached {
		t.Error("a prefix of the failed run was simulated again")
	}
	if got, want := r.summary(), stats.Summarize(freshRecs); !reflect.DeepEqual(got, want) {
		t.Errorf("prefix summary %+v, fresh %+v", got, want)
	}
	if _, err := env.shared("TSA", "MRA", 100); err == nil || err.Error() != wantErr.Error() {
		t.Errorf("longer request: err %v, want %v", err, wantErr)
	}

	_, err = env.RunMatrix(50)
	var f *vm.Fault
	if err == nil || !strings.HasPrefix(err.Error(), "IPv4-radix on MRA: ") || !errors.As(err, &f) {
		t.Errorf("matrix error %v, want IPv4-radix on MRA's fault", err)
	}

	// Microarch rides the failed MRA runs: it reports the error of a
	// fresh profile, the first application's in table order.
	if _, wantErr = freshMicroarch(env, testConfig.TablePackets); wantErr == nil {
		t.Fatal("fresh profile succeeded over the faulting packet")
	}
	if _, err := env.Microarch(0); err == nil || err.Error() != wantErr.Error() {
		t.Errorf("microarch: err %v, want %v", err, wantErr)
	}
}

// TestSharedRunFailsAfterProfile runs every MRA run into a faulting
// packet past TablePackets: the runs keep the profile they snapshotted
// at TablePackets, so Microarch still serves a fresh profile's rows. The
// Env holds TablePackets of MRA, so the test extends its copy with the
// serial construction's next packets.
func TestSharedRunFailsAfterProfile(t *testing.T) {
	n := testConfig.TablePackets
	env := NewEnv(testConfig)
	mra := append([]*trace.Packet(nil), env.traces["MRA"]...)
	mra = append(mra, serialTrace(t, "MRA", n+10)[len(mra):]...)
	mra[n+5] = &trace.Packet{Data: make([]byte, core.MaxPacketLen+1)}
	env.traces["MRA"] = mra
	want, err := freshMicroarch(env, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range AppNames {
		if _, err := env.shared(app, "MRA", n+10); err == nil {
			t.Fatalf("%s: the run past the faulting packet succeeded", app)
		}
	}
	got, err := env.Microarch(n)
	if err != nil {
		t.Fatalf("microarch after the runs failed past its packets: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("microarch rows differ from a fresh profile\nshared: %+v\nfresh:  %+v", got, want)
	}
}

// TestSharedRunConcurrentRequests asks for one key from several
// goroutines at once: equal requests simulate once and share one run,
// and every view, shorter ones included, equals a fresh run.
func TestSharedRunConcurrentRequests(t *testing.T) {
	const n = 100
	env := NewEnv(testConfig)
	lens := []int{n, n, n, n, 10, 60, n, 1}
	views := make([]*sharedRun, len(lens))
	var wg sync.WaitGroup
	for i, m := range lens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := env.shared("Flow Classification", "COS", m)
			if err != nil {
				t.Error(err)
				return
			}
			views[i] = r
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, m := range lens {
		_, recs, err := NewEnv(testConfig).Run("Flow Classification", "COS", m, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := views[i].summary(), stats.Summarize(recs); !reflect.DeepEqual(got, want) {
			t.Errorf("request %d (%d packets): summary %+v, fresh %+v", i, m, got, want)
		}
		if m == n && &views[i].scalars[0] != &views[0].scalars[0] {
			t.Errorf("request %d simulated its own %d-packet run", i, n)
		}
	}
}

// TestSharedRunExtends asks each application for k packets and then
// n > k: the longer request continues the cached run on its bench, and
// its records equal a fresh n-packet run's, stateful Flow Classification
// included. The view taken before the extension, read concurrently while
// the run grows, keeps its packets. One pair starts below FigurePackets
// and ends above it; the other starts above it and ends short of the
// TablePackets the Env holds of MRA, since a run that covers its whole
// trace releases its bench.
func TestSharedRunExtends(t *testing.T) {
	env := NewEnv(testConfig)
	fig := testConfig.FigurePackets
	for _, app := range AppNames {
		for _, c := range []struct {
			trace string
			k, n  int
		}{{"COS", fig / 2, 2*fig - 40}, {"MRA", fig + 10, testConfig.TablePackets - 10}} {
			before, err := env.shared(app, c.trace, c.k)
			if err != nil {
				t.Fatal(err)
			}
			kept := &sharedRun{
				scalars:   slices.Clone(before.scalars),
				head:      slices.Clone(before.head),
				numBlocks: before.numBlocks,
			}
			ent := env.runs.entries[sharedKey(app, c.trace)]
			run, bench := ent.run, ent.bench
			done := make(chan struct{})
			go func() {
				defer close(done)
				for range 3 {
					before.summary()
					stats.BlockSets(before.head)
				}
			}()
			after, err := env.shared(app, c.trace, c.n)
			<-done
			if err != nil {
				t.Fatal(err)
			}
			if ent.run != run || ent.bench != bench {
				t.Errorf("%s on %s: the %d-packet request replaced the run instead of extending it", app, c.trace, c.n)
			}
			if !reflect.DeepEqual(before, kept) {
				t.Errorf("%s on %s: the %d-packet view changed when the run grew to %d", app, c.trace, c.k, c.n)
			}
			// The fresh run gathers every block set; the head compares
			// the first FigurePackets of them.
			fresh, err := core.New(env.app(app), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			fresh.Collector().BlockSets = true
			recs, err := fresh.RunPackets(env.Trace(c.trace, c.n), nil)
			if err != nil {
				t.Fatal(err)
			}
			want := &sharedRun{head: recs[:min(c.n, fig)], numBlocks: before.numBlocks}
			for i := range recs {
				r := &recs[i]
				want.scalars = append(want.scalars, packetScalars{
					instructions: uint32(r.Instructions),
					unique:       uint32(r.Unique),
					packetAcc:    uint32(r.PacketAccesses()),
					nonPacketAcc: uint32(r.NonPacketAccesses()),
				})
			}
			if !reflect.DeepEqual(after, want) {
				t.Errorf("%s on %s: %d packets extended from %d differ from a fresh run", app, c.trace, c.n, c.k)
			}
		}
	}
}

// TestSharedRunExtensionFails extends a healthy run into a faulting
// packet: the request reports the fresh run's error, the failed run is
// never extended again, longer requests get its error, and the packets
// before the fault are still served.
func TestSharedRunExtensionFails(t *testing.T) {
	const bad = 20
	env := NewEnv(testConfig)
	mra := append([]*trace.Packet(nil), env.traces["MRA"]...)
	mra[bad] = &trace.Packet{Data: make([]byte, core.MaxPacketLen+1)}
	env.traces["MRA"] = mra
	_, _, wantErr := env.Run("Flow Classification", "MRA", 50, core.Options{})
	if wantErr == nil {
		t.Fatalf("fresh run succeeded, want a fault at packet %d", bad)
	}

	if _, err := env.shared("Flow Classification", "MRA", bad-5); err != nil {
		t.Fatal(err)
	}
	ent := env.runs.entries[runKey{"Flow Classification", "MRA", testConfig.TablePackets}]
	for _, n := range []int{50, 100, bad + 1} {
		if _, err := env.shared("Flow Classification", "MRA", n); err == nil || err.Error() != wantErr.Error() {
			t.Errorf("%d packets: err %v, want %v", n, err, wantErr)
		}
		if ent.bench != nil || len(ent.run.scalars) != bad {
			t.Errorf("%d packets: the failed run holds %d packets and a bench %v, want %d and none", n, len(ent.run.scalars), ent.bench, bad)
		}
	}
	r, err := env.shared("Flow Classification", "MRA", bad)
	if err != nil {
		t.Fatalf("prefix before the fault: %v", err)
	}
	_, recs, _ := env.Run("Flow Classification", "MRA", bad, core.Options{})
	if got, want := r.summary(), stats.Summarize(recs); !reflect.DeepEqual(got, want) {
		t.Errorf("prefix summary %+v, fresh %+v", got, want)
	}
}

// sharedKey is the key Env.shared caches appName over traceName under.
func sharedKey(appName, traceName string) runKey {
	if traceName == "MRA" {
		return runKey{appName, traceName, testConfig.TablePackets}
	}
	return runKey{appName, traceName, 0}
}

// freshMicroarch is the microarchitectural table as a standalone run
// computes it: its own bench and profiler per application, over the
// first packets of MRA. Env.Microarch must equal it.
func freshMicroarch(e *Env, packets int) ([]MicroarchRow, error) {
	rows := make([]MicroarchRow, len(AppNames))
	err := forCells(len(rows), func(i int) error {
		b, err := core.New(e.app(AppNames[i]), core.Options{})
		if err != nil {
			return err
		}
		ic, err := microarch.NewCache(4096, 16, 2)
		if err != nil {
			return err
		}
		dc, err := microarch.NewCache(8192, 16, 2)
		if err != nil {
			return err
		}
		prof := microarch.NewProfiler(ic, dc)
		b.AddTracer(prof)
		if _, err := b.RunPackets(e.Trace("MRA", packets), nil); err != nil {
			return err
		}
		prof.Flush()
		rows[i] = MicroarchRow{
			App:            AppNames[i],
			ALUFrac:        prof.Mix.Frac(microarch.ClassALU),
			LoadFrac:       prof.Mix.Frac(microarch.ClassLoad),
			StoreFrac:      prof.Mix.Frac(microarch.ClassStore),
			BranchFrac:     prof.Mix.Frac(microarch.ClassBranch),
			TakenRate:      prof.Branches.TakenRate(),
			BimodalAcc:     prof.Branches.BimodalAccuracy(),
			ICacheMissRate: ic.MissRate(),
			DCacheMissRate: dc.MissRate(),
			CPI:            prof.CPI(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// TestMicroarchRidesSharedRuns diffs Env.Microarch against
// freshMicroarch in four orders: pbreport's, where the figures read a
// prefix of the profiled MRA runs and Microarch reads the matrix's runs;
// Microarch first, so the matrix reads the runs Microarch made; a
// length other than TablePackets first, which gets runs of its own; and
// all of them at once. The matrix's MRA cells, read from profiled runs,
// must equal unprofiled runs'.
func TestMicroarchRidesSharedRuns(t *testing.T) {
	n, short := testConfig.TablePackets, testConfig.TablePackets/3
	want, err := freshMicroarch(sharedEnv, n)
	if err != nil {
		t.Fatal(err)
	}
	wantShort, err := freshMicroarch(sharedEnv, short)
	if err != nil {
		t.Fatal(err)
	}
	unprofiled := map[string]MatrixCell{}
	for _, app := range AppNames {
		_, recs, err := sharedEnv.Run(app, "MRA", n, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := stats.Summarize(recs)
		unprofiled[app] = MatrixCell{s.MeanInstructions, s.MeanPacketAcc, s.MeanNonPacketAcc}
	}
	steps := map[string]func(t *testing.T, e *Env){
		"matrix": func(t *testing.T, e *Env) {
			m, err := e.RunMatrix(n)
			if err != nil {
				t.Error(err)
			} else if !reflect.DeepEqual(m.Cells["MRA"], unprofiled) {
				t.Errorf("matrix MRA cells %+v, unprofiled runs %+v", m.Cells["MRA"], unprofiled)
			}
		},
		"figures": func(t *testing.T, e *Env) {
			if _, err := e.FigureSeries(MetricInstructions); err != nil {
				t.Error(err)
			}
		},
		"microarch": func(t *testing.T, e *Env) {
			if got, err := e.Microarch(n); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("microarch: err %v, rows differ from a fresh profile\nshared: %+v\nfresh:  %+v", err, got, want)
			}
		},
		"short microarch": func(t *testing.T, e *Env) {
			if got, err := e.Microarch(short); err != nil || !reflect.DeepEqual(got, wantShort) {
				t.Errorf("%d-packet microarch: err %v, rows differ from a fresh profile\nshared: %+v\nfresh:  %+v", short, err, got, wantShort)
			}
		},
	}
	steps["all at once"] = func(t *testing.T, e *Env) {
		var wg sync.WaitGroup
		for _, st := range []string{"microarch", "matrix", "figures", "short microarch"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				steps[st](t, e)
			}()
		}
		wg.Wait()
	}
	orders := [][]string{
		{"matrix", "figures", "microarch", "short microarch"},
		{"microarch", "matrix", "short microarch"},
		{"short microarch", "figures", "microarch", "matrix"},
		{"all at once"},
	}
	for _, procs := range []int{1, 4} {
		for _, order := range orders {
			t.Run(fmt.Sprintf("GOMAXPROCS=%d/%s", procs, strings.Join(order, ",")), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				env := NewEnv(testConfig)
				for _, st := range order {
					steps[st](t, env)
				}
				// One run per matrix cell, which the figures and
				// Microarch(n) share, plus Microarch(short)'s own.
				if got, want := len(env.runs.entries), len(AppNames)*(len(TraceNames)+1); got != want {
					t.Errorf("%d cached runs, want %d", got, want)
				}
			})
		}
	}
}
