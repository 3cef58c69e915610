package main

// recordedDigests holds each workload's output digest at the default seed
// and full size, as the "digest" line of a run prints it. A run at that
// seed and size fails its digest check when its outputs hash differently.
var recordedDigests = map[string]string{
	"bigrun":  "525d926901fcf2c3c864ea1a5a49160be156ab7afebdf712d0f07eabc0b1266a",
	"figures": "91c80f6c57d17bac6c4aaeeb85b9d9ce503e8a90ee603b93d6efbe01f96c1e67",
	"faults":  "32afd29927407889074273bfb9862f62855b0aeef6871cca68c687c8f4be473c",
	"control": "de09b4f1d86a2e7531c6bd64901656b681ec0bd1c223a577dd6624b5af8ed6cb",
}
