package main

import (
	"crypto/sha256"
	"encoding/json"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// The benchmark runs on small virtual machines that share their host.
// Other guests take CPU time from them (steal) and compete for the
// host's caches and memory, in episodes that last minutes and slow
// everything in the guest by a quarter to a half. A window cannot
// average over such episodes, so every run times a fixed reference
// kernel at quiet points between blocks of its window, while no request
// is in flight, and scales each block's times by the kernel's speed:
// time metrics are milliseconds on a machine whose kernel takes
// kernelRefMs.
//
// The kernel has two halves because the workloads slow down in two
// ways. Hashing and scattered writes over a table larger than a vCPU's
// share of the cache follow compile_miss, read_mix and mutate_live;
// building, sorting and encoding many small Go objects, with the
// garbage collection that follows, tracks the allocation-bound loads of
// ingest_durable. Either half alone left one workload's spread between
// runs twice as wide as the pair does.

// kernelRefMs is the kernel's duration on the quiet 2-vCPU machine the
// bounds were set on.
const kernelRefMs = 10.0

// kernelHashRounds and kernelAllocRounds size the halves to about 5 ms
// each there.
const (
	kernelHashRounds  = 3000
	kernelAllocRounds = 8
)

var (
	kernelTable = make([]uint64, 1<<20) // 8 MiB
	kernelSink  uint64
)

// kernel runs both halves on one thread and returns their duration in
// milliseconds. It uses the standard library alone, so no change to the
// program under test moves it.
func kernel() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	kernelHash()
	kernelAlloc()
	return float64(time.Since(start)) / float64(time.Millisecond)
}

func kernelHash() {
	var buf [1024]byte
	x := kernelSink | 1
	for i := 0; i < kernelHashRounds; i++ {
		sum := sha256.Sum256(buf[:])
		buf[i%len(buf)] ^= sum[0]
		for j := 0; j < 64; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			kernelTable[x&uint64(len(kernelTable)-1)] += x
		}
	}
	kernelSink = x
}

type kernelDoc struct {
	Name string   `json:"name"`
	Args []string `json:"args"`
	N    int      `json:"n"`
}

func kernelAlloc() {
	for r := 0; r < kernelAllocRounds; r++ {
		byName := make(map[string][]string, 256)
		docs := make([]kernelDoc, 0, 256)
		for i := 0; i < 256; i++ {
			name := "R" + strconv.Itoa(i*7919%1000) + "_" + strconv.Itoa(r)
			byName[name] = append(byName[name], name, strconv.Itoa(i))
			docs = append(docs, kernelDoc{Name: name, Args: byName[name], N: i})
		}
		names := make([]string, 0, len(byName))
		for name := range byName {
			names = append(names, name)
		}
		sort.Strings(names)
		blob, err := json.Marshal(docs)
		if err != nil {
			panic(err) // a slice of plain structs always encodes
		}
		var back []kernelDoc
		if err := json.Unmarshal(blob, &back); err != nil {
			panic(err) // the blob was just encoded
		}
		kernelSink += uint64(len(back) + len(names[0]))
	}
}
