package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"guardedrules/internal/kbcache"
)

// ingestDurable posts a distinct 2,500-fact DB to a server with a data
// dir on every op and reads one atom back from it: the bulk write path
// (parse, build, journal, commit, clone) plus a first read of the fresh
// DB. Hundreds of DBs per run overflow the 32-entry DB cache, so
// evictions close segment stores as the run goes.
type ingestDurable struct {
	seed   int64
	prefix string
	thID   string

	mu    sync.Mutex
	acked map[string]int // db id -> acknowledged fact count
}

const (
	ingestChains, ingestEdges = 125, 10
	ingestFacts               = 2 * ingestChains * ingestEdges
)

func (w *ingestDurable) durable() bool { return true }
func (w *ingestDurable) cycle() int    { return 1 }

func (w *ingestDurable) prepare(seed int64) error {
	w.seed = seed
	w.prefix = "k" + strconv.FormatUint(uint64(seed), 36) + "o"
	w.thID = kbcache.HashSource(hotSource)
	w.acked = map[string]int{}
	return nil
}

func (w *ingestDurable) setup() []request {
	return append([]request{theoryReq(hotSource)}, w.opFor("warm", 0, classNone, classNone)...)
}

func (w *ingestDurable) op(i int) []request {
	return w.opFor(strconv.Itoa(i), pick(w.seed, i, ingestChains), classPrimary, classSide)
}

// opFor loads DB `tag` and asks for the nodes reachable from chain c's
// head.
func (w *ingestDurable) opFor(tag string, c int, load, read class) []request {
	prefix := w.prefix + tag + "c"
	facts := chainFacts(prefix, ingestChains, ingestEdges)
	return []request{
		post("/v1/dbs", "dbs", map[string]string{"facts": facts}, load, w.checkLoad),
		atomReq(w.thID, kbcache.HashSource(facts), atomQuery(prefix, c), read,
			expectAnswers(chainSuffix(prefix, c, ingestEdges))),
	}
}

func (w *ingestDurable) checkLoad(body []byte) error {
	var r struct {
		ID    string `json:"id"`
		Facts int    `json:"facts"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if r.Facts != ingestFacts {
		return fmt.Errorf("load acknowledged %d facts, sent %d", r.Facts, ingestFacts)
	}
	w.mu.Lock()
	w.acked[r.ID] = r.Facts
	w.mu.Unlock()
	return nil
}

// afterWindow restarts the server on its data dir after a graceful
// SIGTERM: every DB the restarted server lists must hold exactly the
// fact count its load acknowledged. Untimed.
func (w *ingestDurable) afterWindow(r *e2eRun) error {
	if err := r.srv.terminate(30 * time.Second); err != nil {
		return fmt.Errorf("graceful stop: %w", err)
	}
	t0 := time.Now()
	if err := r.restart(); err != nil {
		return err
	}
	r.meta["restart_s"] = time.Since(t0).Seconds()
	listed := 0
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, want := range w.acked {
		status, body, err := r.c.send(request{method: http.MethodGet, path: "/v1/dbs/" + id, kind: "db_info"})
		if err != nil {
			return fmt.Errorf("db %.12s after restart: %w", id, err)
		}
		if status == http.StatusNotFound {
			continue // beyond the restarted server's 32-entry DB cache
		}
		var info struct {
			Facts int `json:"facts"`
		}
		if status != http.StatusOK || json.Unmarshal(body, &info) != nil {
			return fmt.Errorf("db %.12s after restart: status %d: %.200s", id, status, body)
		}
		if info.Facts != want {
			return fmt.Errorf("db %.12s after restart holds %d facts, load acknowledged %d", id, info.Facts, want)
		}
		listed++
	}
	if listed == 0 {
		return fmt.Errorf("restarted server lists none of the %d loaded DBs", len(w.acked))
	}
	r.meta["restart_dbs_checked"] = listed
	r.meta["dbs_loaded"] = len(w.acked)
	return nil
}
