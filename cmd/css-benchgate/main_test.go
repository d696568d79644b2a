package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestReadRun(t *testing.T) {
	for _, tc := range []struct {
		name       string
		out        string
		wantAllocs map[string]int64
		wantRates  map[string]float64
	}{
		{
			name:       "plain",
			out:        "BenchmarkE1_PublishRoute-2 \t    2000\t     62103 ns/op\t    7781 B/op\t      51 allocs/op\n",
			wantAllocs: map[string]int64{"BenchmarkE1_PublishRoute": 51},
		},
		{
			// Custom metrics sit between ns/op and B/op.
			name: "custom metrics",
			out: "BenchmarkE2_DetailRequest/policies=10-2 \t 1000\t 78977 ns/op\t 756.0 consent.check-ns\t 23465 gateway.fetch-ns\t 3432 B/op\t 49 allocs/op\n" +
				"BenchmarkE1_Saturation/codec=binary/conns=16-2 \t 5000\t 120000 ns/op\t 8461 pub/s\t 11600000 p99-ns\t 21920 B/op\t 158 allocs/op\n",
			wantAllocs: map[string]int64{
				"BenchmarkE2_DetailRequest/policies=10":        49,
				"BenchmarkE1_Saturation/codec=binary/conns=16": 158,
			},
			wantRates: map[string]float64{"BenchmarkE1_Saturation/codec=binary/conns=16": 8461},
		},
		{
			// GOMAXPROCS=1 runs print names without the -N suffix.
			name:       "no proc suffix",
			out:        "BenchmarkE1_PublishRouteBinary \t 2000\t 25014 ns/op\t 2795 B/op\t 37 allocs/op\n",
			wantAllocs: map[string]int64{"BenchmarkE1_PublishRouteBinary": 37},
		},
		{
			name: "worst of count",
			out: "goos: linux\ncpu: Intel(R) Xeon(R) Processor\n" +
				"BenchmarkE1_PublishRouteBinary-2 \t 2000\t 25014 ns/op\t 2795 B/op\t 37 allocs/op\n" +
				"BenchmarkE1_PublishRouteBinary-2 \t 2000\t 25014 ns/op\t 2795 B/op\t 39 allocs/op\n" +
				"BenchmarkE1_PublishRouteBinary-2 \t 2000\t 25014 ns/op\t 2795 B/op\t 36 allocs/op\n" +
				"BenchmarkE1_ShardedSaturation/shards=1/conns=16-2 \t 9000\t 110000 ns/op\t 9101 pub/s\t 24696 B/op\t 161 allocs/op\n" +
				"BenchmarkE1_ShardedSaturation/shards=1/conns=16-2 \t 9000\t 110000 ns/op\t 8800 pub/s\t 24696 B/op\t 161 allocs/op\n" +
				"BenchmarkE1_ShardedSaturation/shards=1/conns=16-2 \t 9000\t 110000 ns/op\t 9300 pub/s\t 24696 B/op\t 161 allocs/op\n" +
				"PASS\nok  \trepro\t6.026s\n",
			wantAllocs: map[string]int64{
				"BenchmarkE1_PublishRouteBinary":                  39,
				"BenchmarkE1_ShardedSaturation/shards=1/conns=16": 161,
			},
			wantRates: map[string]float64{"BenchmarkE1_ShardedSaturation/shards=1/conns=16": 8800},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs, rates, err := readRun(strings.NewReader(tc.out))
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantRates == nil {
				tc.wantRates = map[string]float64{}
			}
			if !reflect.DeepEqual(allocs, tc.wantAllocs) {
				t.Errorf("allocs = %v, want %v", allocs, tc.wantAllocs)
			}
			if !reflect.DeepEqual(rates, tc.wantRates) {
				t.Errorf("pub/s = %v, want %v", rates, tc.wantRates)
			}
		})
	}
}
