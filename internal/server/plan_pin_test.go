package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// planPins are sha256 digests of the rendered BuildPlanResult JSON, captured
// at commit 1b38c8d — the last one whose percentiles came from a full
// copy-and-sort of every server's samples — before any program file changed.
// They pin the plan across versions: order-statistic selection must hand the
// planner the very float64s the sort did.
var planPins = map[string]string{
	`{"days":1,"seed":1}`:                            "d32f03303629b18b1ae08298cfb6ac6720093144113f0dc12d9659a37c6239da",
	`{"days":1,"seed":2}`:                            "9543138b658675b4738f9fd36ae32e63ddf29978e04e319b6beb5ea911524588",
	`{"days":1,"seed":3}`:                            "76de1828e3959a93dc2c0f9455f52d2f66ba02acd818a5e4b1faa1b1de93754e",
	`{"days":1,"seed":5}`:                            "a9e8f439973f3bfc0f65be455a1732e18d8ecf21ef3cbd97cb23125dbe9ddede",
	`{"days":1,"seed":8}`:                            "625f7e8c43241f596404a018fe29a3b7d4a0e8cedd95ad25e25124bdd6b8ad1f",
	`{"days":1,"seed":13}`:                           "a5ad9b07ba814d66d531b664e5a6aaf3ab630f6f0fa14c5f8c30d2473cafee60",
	`{"days":1,"seed":1,"pools":["A","B","D","H"]}`:  "bad48c5f17bc8fb8d6eb16192206eefa0c1742cb0697cb70c11e814dab694bd2",
	`{"days":1,"seed":2,"pools":["A","B","D","H"]}`:  "005e37a311f71e5ef408cbf57a55d2e46e6aaae071f70df227ca5f274be40ce5",
	`{"days":1,"seed":3,"pools":["A","B","D","H"]}`:  "0d9b03a3bf74b3ebb20a50a24a4c850836860436d3a8302359cb06caa66daa18",
	`{"days":2,"seed":5,"pools":["A","B","D","H"]}`:  "584dc3f9ec2b3074c5896da2b8d4eb4ecdf70106a12bfc4e41ee244263cc6e79",
	`{"days":1,"seed":8,"pools":["A","B","D","H"]}`:  "15876e1f87e187fccc06c6c015eb4cb19900b7043c1d25ad03114a44dedd8858",
	`{"days":1,"seed":13,"pools":["A","B","D","H"]}`: "df5a6e21d1ff86ebe464cd4820722d746ae71a58145233b9cf1fdab71df9eafd",
}

func TestPlanResultPinnedAcrossVersions(t *testing.T) {
	if testing.Short() {
		t.Skip("plans the default fleet six times")
	}
	s := New(Config{Workers: 1, QueueDepth: 1, Shards: 1})
	defer s.Shutdown(context.Background())
	for body, want := range planPins {
		req, err := decodePlan([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		res, _, err := s.computePlan(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: sha256 %s, pinned %s", body, got, want)
		}
	}
}
