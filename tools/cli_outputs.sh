#!/bin/sh
# Snapshot what the softdyn CLI and the incline demo write, for one
# checkout, so that two checkouts can be compared with `diff -r`.
#
# Usage: tools/cli_outputs.sh REPO OUT
#
# REPO is the root of a softdyn checkout (its src/ goes on PYTHONPATH) and
# OUT a directory to fill. BLAS and OpenMP run on one thread, since the
# thread count can move dense linear algebra at rounding. The stderr of
# the block_drop simulation, damping-curves, convergence and the incline
# demo is kept, so that a warning (such as a clamped contact gap) shows up
# in the comparison; warnings print absolute source paths, so REPO is
# replaced by the token REPO there.
set -eu
if [ $# -ne 2 ]; then
    echo "usage: $0 REPO OUT" >&2
    exit 2
fi
repo=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
export OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1
export PYTHONPATH="$repo/src"
cd "$repo"

softdyn() {
    python3 -m softdyn.cli "$@"
}

# with_stderr FILE CMD...: run CMD, its stderr into FILE with REPO replaced
with_stderr() {
    file=$1
    shift
    "$@" 2> "$file.raw"
    sed "s#$repo#REPO#g" "$file.raw" > "$file"
    rm "$file.raw"
}

with_stderr "$out/block_drop_stderr.txt" softdyn simulate \
    --scene demos/assets/block_drop.json --out "$out/block_drop"
softdyn simulate --scene demos/assets/beam_scene.json --out "$out/beam"
with_stderr "$out/damping_stderr.txt" softdyn damping-curves \
    --methods BE,SI,TR,BDF2,SBDF2,TRBDF2,STRBDF2,SDIRK,SSDIRK,ERE \
    --out "$out/damping"
mkdir -p "$out/convergence"
with_stderr "$out/convergence/stderr.txt" softdyn convergence \
    --methods BE,SI,TR,BDF2,SBDF2,TRBDF2,STRBDF2,SDIRK,SSDIRK \
    --out "$out/convergence" > "$out/convergence/stdout.txt"
softdyn eigs --scene demos/assets/beam_scene.json --out "$out/eigs"
# Every demo scene has at most 300 free dofs, which the dense eigensolver
# takes; the 16x4x4 beam (1125 free dofs) runs the sparse one.
mkdir -p "$out/beam16"
python3 - "$out/beam16" <<'PY'
import json
import os
import sys

from softdyn import meshes

out = sys.argv[1]
meshes.save_mesh(meshes.beam_mesh(16, 4, 4, 1.0, 0.25, 0.25),
                 os.path.join(out, "beam16.mesh"))
with open("demos/assets/beam_scene.json") as f:
    scene = json.load(f)
scene["mesh"] = "beam16.mesh"
with open(os.path.join(out, "beam16_scene.json"), "w") as f:
    json.dump(scene, f, indent=2)
PY
softdyn eigs --scene "$out/beam16/beam16_scene.json" --s 10 \
    --out "$out/eigs_beam16"
# The beam scene under the Newton stages of TR-BDF2, the labelled SMW stage
# 2 of STR-SBDF2ERE and the modal Newton SMW stage of BDF2ERE; then with
# the linear material, under the scene's SIERE and under TR-BDF2.
mkdir -p "$out/beam_methods"
python3 - "$out/beam_methods" <<'PY'
import json
import os
import shutil
import sys

out = sys.argv[1]
shutil.copy("demos/assets/beam.mesh", out)
with open("demos/assets/beam_scene.json") as f:
    scene = json.load(f)


def write(name, method):
    scene["stepper"]["method"] = method
    with open(os.path.join(out, f"{name}_scene.json"), "w") as f:
        json.dump(scene, f, indent=2)


for method in ("TRBDF2", "STRSBDF2ERE", "BDF2ERE"):
    write(method, method)
scene["material"]["model"] = "linear"
for method in ("SIERE", "TRBDF2"):
    write(f"linear_{method}", method)
PY
for name in TRBDF2 STRSBDF2ERE BDF2ERE linear_SIERE linear_TRBDF2; do
    softdyn simulate --scene "$out/beam_methods/${name}_scene.json" \
        --out "$out/beam_$name"
done
with_stderr "$out/incline_stderr.txt" python3 demos/block_on_incline_demo.py \
    > "$out/incline_stdout.txt"
