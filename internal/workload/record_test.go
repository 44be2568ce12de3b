package workload

import (
	"errors"
	"testing"

	"vdom/internal/cycles"
	"vdom/internal/replay"
)

// TestAppRecordReplay records every application model under every
// System and replays the trace from its header alone. A run with a
// domain layer must replay with zero divergence; an unprotected run
// (Original, and MySQL's lowerbound cell, which the model runs
// unprotected) names no kernel kind, so replay.Boot must reject it.
func TestAppRecordReplay(t *testing.T) {
	apps := []struct {
		name   string
		record func(System) *replay.Trace
	}{
		{"httpd", func(sys System) *replay.Trace {
			cfg := HttpdConfig{Arch: cycles.X86, System: sys, Clients: 4, RequestsPerClient: 2, Workers: 4, Cores: 4}
			cfg.Record = replay.NewRecorder(httpdHeader(cfg, "httpd"))
			RunHttpd(cfg)
			return cfg.Record.Finish()
		}},
		{"mysql", func(sys System) *replay.Trace {
			cfg := MySQLConfig{Arch: cycles.X86, System: sys, Clients: 2, QueriesPerClient: 3, StatementsPerQuery: 4, Cores: 2}
			cfg.Record = replay.NewRecorder(mysqlHeader(cfg, "mysql"))
			RunMySQL(cfg)
			return cfg.Record.Finish()
		}},
		{"pmo", func(sys System) *replay.Trace {
			cfg := PMOConfig{Arch: cycles.X86, System: sys, Threads: 2, OpsPerThread: 20, NumPMOs: 8, Cores: 4}
			cfg.Record = replay.NewRecorder(pmoHeader(cfg, "pmo"))
			RunPMO(cfg)
			return cfg.Record.Finish()
		}},
	}
	for _, app := range apps {
		for _, sys := range []System{Original, VDom, EPK, Libmpk, VDomLowerbound} {
			t.Run(app.name+"/"+sys.String(), func(t *testing.T) {
				tr := app.record(sys)
				unprotected := sys == Original || (app.name == "mysql" && sys == VDomLowerbound)
				if unprotected {
					if _, err := replay.Boot(tr.Header); !errors.Is(err, replay.ErrBadRecord) {
						t.Fatalf("Boot of an unprotected run's header = %v, want ErrBadRecord", err)
					}
					return
				}
				res, err := replay.Run(tr, replay.Options{})
				if err != nil {
					t.Fatalf("replay: %v", err)
				}
				if res.Divergence != nil {
					t.Fatalf("replay diverged: %s", res.Divergence)
				}
				if res.Events != len(tr.Events) || len(tr.Events) == 0 {
					t.Fatalf("replayed %d of %d events", res.Events, len(tr.Events))
				}
			})
		}
	}
}
