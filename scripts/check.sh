#!/bin/sh
# Tier-1 verification: vet, build, and race-test the whole module.
# The race detector is part of the contract — parallel device execution
# (internal/sim/exec.go) must stay data-race free, and the equivalence
# tests in internal/train and internal/bench prove serial and parallel
# runs are bit-identical. perfbench is its own module, so the root
# ./... never compiles it; it is vetted and built separately because it
# drives the program through the public store and trainer APIs.
set -eux
cd "$(dirname "$0")/.."
go vet ./...
go build ./...
(cd perfbench && go vet ./... && go build ./...)
go test -race ./...
