// capbench is a module of its own so that the repository's build
// (`go build ./... && go test ./...` at the root) neither builds nor
// depends on the benchmark. The module path sits under "headroom/" so the
// program's internal packages stay importable; the replace points at the
// checkout this directory is part of.
module headroom/cmd/capbench

go 1.24

require headroom v0.0.0

replace headroom => ../..
