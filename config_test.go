package mistique_test

import (
	"reflect"
	"slices"
	"testing"

	"mistique"
	"mistique/internal/cluster"
	"mistique/internal/colstore"
	"mistique/internal/obs"
	"mistique/internal/server"
)

// settableLeaves lists the exported leaf fields of a config struct as
// dotted paths, descending into nested config structs.
func settableLeaves(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		if f.Type.Kind() == reflect.Struct {
			out = append(out, settableLeaves(f.Type, prefix+f.Name+".")...)
			continue
		}
		out = append(out, prefix+f.Name)
	}
	return out
}

// TestConfigSurface pins every value a program can set on a System, a
// server and a router. A setting belongs here only once a program (a
// command, an example, the experiments or bench/) sets it, so adding a
// knob means editing this list in the same change.
func TestConfigSurface(t *testing.T) {
	for _, c := range []struct {
		cfg  any
		want []string
	}{
		{mistique.Config{}, []string{
			"Store.RowBlockRows", "Store.MemBudgetBytes", "Store.PartitionTargetBytes", "Store.Mode",
			"Store.SimilarityThreshold", "Store.DisableExactDedup", "Store.DisableApproxDedup",
			"Store.ScatterWays", "Store.DeltaMaxDepth", "Store.Codec", "Store.FS", "Store.Obs",
			"Gamma",
			"Cost.ReadBytesPerSec", "Cost.InputBytesPerSec", "Cost.InputBytesPerExample", "Cost.SampleBytesPerSec",
			"SlowQueryThreshold",
		}},
		{server.Config{}, []string{
			"MaxInFlight", "RequestTimeout", "ShardName", "TenantMaxInFlight", "TenantRowsPerSec",
		}},
		{cluster.Config{}, []string{
			"Replication", "BlockRows", "MaxPerShard", "RetryRounds", "RetryBackoff",
			"MinHedgeDelay", "MaxHedgeDelay", "ShardTimeout", "CatalogTTL",
			"Member.ProbeInterval", "Member.ProbeTimeout", "Member.DownAfter", "Member.MaxProbeBackoff",
			"DisableProbes", "Obs",
		}},
	} {
		typ := reflect.TypeOf(c.cfg)
		if got := settableLeaves(typ, ""); !slices.Equal(got, c.want) {
			t.Errorf("%s settable fields changed:\n got  %q\n want %q", typ, got, c.want)
		}
	}
}

// TestOpenRefusesStoreSettingsItOwns: Open sets Store.Obs to the
// System's registry, so a value it would replace is an error instead of
// being dropped silently. The store's block height is the System's.
func TestOpenRefusesStoreSettingsItOwns(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  mistique.Config
		ok   bool
	}{
		{"store obs", mistique.Config{Store: colstore.Config{Obs: obs.New()}}, false},
		{"store block rows agree", mistique.Config{Store: colstore.Config{RowBlockRows: 256}}, true},
		{"store block rows match the default", mistique.Config{Store: colstore.Config{RowBlockRows: 1024}}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := mistique.Open(t.TempDir(), c.cfg)
			if c.ok {
				if err != nil {
					t.Fatal(err)
				}
				if got, want := s.Store().RowBlockRows(), c.cfg.Store.RowBlockRows; got != want {
					t.Fatalf("store block rows %d, want %d", got, want)
				}
				return
			}
			if err == nil {
				t.Fatalf("Open accepted %+v", c.cfg.Store)
			}
		})
	}
}
