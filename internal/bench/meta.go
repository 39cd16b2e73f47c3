package bench

import "runtime"

// Meta records the configuration a benchmark record was measured under. The
// elastic runner stamps BENCH_elastic.json with it, and the measurement
// spine's stamp (benchmark/stamp.go) embeds it, so the spine's compare
// refuses two result sets measured under different settings.
type Meta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Scale      string `json:"scale"`
	Shards     int    `json:"shards"`
	SyncPolicy string `json:"sync_policy"`
}

// SyncInMemory is the sync policy of a cluster with no DataDir and no WAL:
// nothing to sync.
const SyncInMemory = "in-memory"

func scaleName(s Scale) string {
	switch s {
	case Full:
		return "full"
	case Medium:
		return "medium"
	default:
		return "quick"
	}
}

// meta stamps the run environment plus the runner-specific semantic knobs.
// shards is the RESOLVED per-node shard count (after the 0 → GOMAXPROCS
// default), so records from different default environments compare honestly.
func (o Options) meta(shards int, syncPolicy string) Meta {
	return Meta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Scale:      scaleName(o.Scale),
		Shards:     shards,
		SyncPolicy: syncPolicy,
	}
}
