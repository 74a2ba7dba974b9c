#!/bin/sh
# Build altprof from this checkout and run `altprof bench` with the given
# arguments (--workload NAME --seed S --seconds T --trace 0|1). Run it
# from the repository root: the build uses that directory as dune's root,
# with dune's shared cache off, so it reads and writes nothing outside.
set -eu
exec dune exec --root . --cache disabled --display quiet -- \
  bench/profile/altprof.exe bench "$@"
