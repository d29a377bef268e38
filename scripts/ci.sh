#!/usr/bin/env bash
# Tier-1 verification gate. Every PR must pass this script unchanged;
# it is exactly what reviewers and automation run.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every workspace cargo step runs with --offline: the workspace depends on
# no crate outside the repository, so it must build without a registry.
echo "==> no manifest names rand, rand_distr, serde, serde_json or proptest"
if grep -nwE 'rand(_distr)?|serde(_json)?|proptest' Cargo.toml crates/*/Cargo.toml; then
  echo "ci: the workspace depends on no external crate" >&2
  exit 1
fi

# Test oracles pin the fast paths from the unit tests of the module they
# pin; they are not API. This keeps the retired oracles and twin entry
# points out of every crate's public surface by name.
echo "==> no test oracle or retired twin entry point is public"
python3 - <<'PYEOF'
import glob, re, sys
# compiled into the unit tests only (#[cfg(test)]), never public
TEST_ONLY = ["tune_reference", "optimize_matrix_reference", "reduce_gradient",
             "extract_core_gradients", "matmul_into_scalar",
             "program_matrix_with_ddv_scalar", "write_bulk_reference"]
# deleted: one entry point per operation, one programming path, one readout,
# no in-process artifact cache, no model without a caller, one evaluation path
# and no capability without a shipped caller
GONE = ["matmul_into_serial", "optimize_matrix_with_threads", "readout_qint",
        "write_cells", "bitline_currents", "bitline_currents_into", "gevm_into_f64",
        "dot_planes_range", "popcount_range", "cached_model", "fingerprint",
        "fingerprint_of", "read_power_of_histogram", "weight_histogram", "plan_layer",
        "plan_network", "gemm_nt_prepacked", "infer_packed", "forward_packed",
        "forward_packed_impl", "bernoulli", "is_stochastic", "with_seed", "retained",
        "is_exact", "oneshot"]
# a shipping helper, private to its crate
PRIVATE = ["refresh_effective_reference"]
NAMES = TEST_ONLY + GONE + PRIVATE
errors = []
for path in sorted(glob.glob("crates/*/src/**/*.rs", recursive=True)):
    text = open(path).read()
    lines = text.split("\n")
    # the trailing `#[cfg(test)] mod tests` block, if any
    tests_at = len(lines)
    for i in range(len(lines) - 1):
        if lines[i].strip() == "#[cfg(test)]" and lines[i + 1].startswith("mod tests"):
            tests_at = i
            break
    for stmt in re.findall(r"\bpub\s+use\b[^;]*;", text):
        for name in NAMES:
            if re.search(rf"\b{name}\b", stmt):
                errors.append(f"{path}: `pub use` re-exports {name}")
    for i, line in enumerate(lines):
        for name in NAMES:
            if not re.search(rf"\bfn\s+{name}\b", line):
                continue
            where = f"{path}:{i + 1}"
            if name in GONE:
                errors.append(f"{where}: {name} is deleted; call the one entry point")
            elif re.match(r"\s*pub\s+fn\b", line):
                errors.append(f"{where}: {name} is public")
            elif name in TEST_ONLY and i < tests_at:
                j = i - 1
                while j >= 0 and lines[j].strip().startswith(("///", "#[")) \
                        and lines[j].strip() != "#[cfg(test)]":
                    j -= 1
                if j < 0 or lines[j].strip() != "#[cfg(test)]":
                    errors.append(f"{where}: {name} is not #[cfg(test)]")
if errors:
    sys.exit("ci: test oracles leaked into the API:\n  " + "\n  ".join(errors))
PYEOF

# Scratch buffers come from one pool per thread, `rdo_tensor::scratch`;
# no layer, arena or module keeps a pool of its own.
echo "==> one scratch pool: no Scratch field and no other thread_local! buffer pool"
python3 - <<'PYEOF'
import glob, re, sys
POOL = "crates/tensor/src/scratch.rs"
FILES = sorted(set(glob.glob("crates/*/src/**/*.rs", recursive=True)
                   + glob.glob("crates/*/tests/*.rs") + glob.glob("src/**/*.rs", recursive=True)
                   + glob.glob("tests/*.rs") + glob.glob("examples/*.rs")) - {POOL})
# a field `name: Scratch` (any path prefix, any visibility)
FIELD = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?\w+\s*:\s*(?:[\w:]+::)?Scratch\b", re.M)
# what a buffer pool in a thread-local holds
POOLED = re.compile(r"\bScratch\b|Vec<\s*f(?:32|64)\s*>|Vec<\s*Vec<")
errors = []
for path in FILES:
    text = open(path).read()
    for m in FIELD.finditer(text):
        line = text.count("\n", 0, m.start()) + 1
        errors.append(f"{path}:{line}: a Scratch field; take buffers from rdo_tensor::scratch")
    for m in re.finditer(r"\bthread_local!\s*\{", text):
        depth, end = 1, m.end()
        while depth and end < len(text):
            depth += {"{": 1, "}": -1}.get(text[end], 0)
            end += 1
        if POOLED.search(text[m.end():end]):
            line = text.count("\n", 0, m.start()) + 1
            errors.append(f"{path}:{line}: a thread_local! buffer pool; use rdo_tensor::scratch")
if errors:
    sys.exit("ci: scratch buffers must come from the one per-thread pool:\n  " + "\n  ".join(errors))
PYEOF

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> Cargo.lock lists only path packages"
if grep -n '^source = ' Cargo.lock; then
  echo "ci: Cargo.lock names a package from outside the repository" >&2
  exit 1
fi

echo "==> cargo test -q"
cargo test --offline -q

echo "==> cargo test --workspace -q (every crate's unit, integration and doc tests)"
cargo test --offline --workspace -q

echo "==> cargo test --release -p rdo-tensor -p rdo-nn (bitwise pins on the shipped x86-64-v3 release build)"
cargo test --release --offline -q -p rdo-tensor -p rdo-nn

echo "==> benchmark builds offline against the workspace API"
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "==> benchmark shims self-check"
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- shims

echo "==> cargo clippy --offline --workspace --all-targets -- -D warnings (test code included)"
cargo clippy --offline --workspace --all-targets -- -D warnings

# --document-private-items: intra-doc links in private modules are checked too
echo "==> cargo doc --workspace --no-deps --document-private-items (warnings, e.g. broken intra-doc links, fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --document-private-items

echo "==> cargo fmt --check"
cargo fmt --check

# The smokes below run in a scratch working directory, so they write
# their records there and leave the committed results/ as they are. Its
# target/ is the repo's, so trained-model checkpoints are reused.
ROOT="$(pwd)"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
mkdir -p target
ln -s "$ROOT/target" "$SMOKE_DIR/target"
smoke() {
  (cd "$SMOKE_DIR" && "$@")
}

echo "==> perf_report --quick (smoke: every BENCH_*.json but BENCH_obs, serve and lifetime included, into the scratch directory)"
smoke cargo run --release --offline --manifest-path "$ROOT/Cargo.toml" -p rdo-bench --bin perf_report -- --quick

echo "==> obs smoke: fig5a with RDO_OBS, then obs_report (in the scratch directory)"
OBS_LOG="$SMOKE_DIR/rdo-obs/ci.jsonl"
smoke env RDO_OBS="$OBS_LOG" RDO_SCALE=fast RDO_THREADS=1 RDO_CYCLES=1 \
  cargo run --release --offline --manifest-path "$ROOT/Cargo.toml" -p rdo-bench --bin fig5a > /dev/null
if [ ! -s "$OBS_LOG" ]; then
  echo "ci: missing or empty $OBS_LOG" >&2
  exit 1
fi
# Every sink line must be a JSON object, and the stream must contain the
# run header plus at least one span and one counter event.
python3 - "$OBS_LOG" <<'PYEOF'
import json, sys
evs = set()
with open(sys.argv[1]) as fh:
    for i, line in enumerate(fh, 1):
        try:
            obj = json.loads(line)
        except ValueError:
            sys.exit(f"ci: {sys.argv[1]}:{i} is not valid JSON: {line!r}")
        if not isinstance(obj, dict) or "ev" not in obj:
            sys.exit(f"ci: {sys.argv[1]}:{i} lacks an 'ev' field")
        evs.add(obj["ev"])
missing = {"run_start", "span", "counter"} - evs
if missing:
    sys.exit(f"ci: obs log lacks event kinds: {sorted(missing)}")
PYEOF
smoke cargo run --release --offline --manifest-path "$ROOT/Cargo.toml" -p rdo-bench --bin obs_report -- "$OBS_LOG" > /dev/null

echo "==> BENCH records present and well-formed (the committed ones and the smokes' fresh ones)"
for dir in results "$SMOKE_DIR/results"; do
  for f in "$dir"/BENCH_{gemm,cycles,vawo,program,pwt,serve,sweep,obs}.json "$dir"/lifetime.json; do
    if [ ! -s "$f" ]; then
      echo "ci: missing or empty $f" >&2
      exit 1
    fi
    if command -v jq > /dev/null 2>&1; then
      jq empty "$f" || { echo "ci: malformed $f" >&2; exit 1; }
    else
      python3 -m json.tool "$f" > /dev/null || { echo "ci: malformed $f" >&2; exit 1; }
    fi
  done
done

# One schema for every record perf_report writes, committed or fresh: a
# header plus {case, variant, ns, baseline_variant, speedup[, flop]} rows
# (the fresh ones are checked when SMOKE_DIR is set). The gates
# on the numbers themselves (serve bitwise/quantiles, lifetime arms,
# sweep pool) fail perf_report where the numbers are computed.
echo "==> BENCH_* records follow the row schema"
python3 - results ${SMOKE_DIR:+"$SMOKE_DIR/results"} <<'PYEOF'
import glob, json, os, sys
def is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)
WRITTEN = {"gemm", "cycles", "vawo", "program", "pwt", "serve", "sweep"}
HEADER = {"bench": str, "unit": str, "quick": bool, "nproc": int, "threads": int, "rows": list}
for root in sys.argv[1:]:
    found = {os.path.basename(f)[len("BENCH_"):-len(".json")]
             for f in glob.glob(os.path.join(root, "BENCH_*.json"))} - {"obs"}
    if found != WRITTEN:
        sys.exit(f"ci: BENCH_* records {sorted(found)} != the set perf_report writes {sorted(WRITTEN)}")
    for name in sorted(WRITTEN):
        path = os.path.join(root, f"BENCH_{name}.json")
        rec = json.load(open(path))
        def bad(msg):
            sys.exit(f"ci: {path}: {msg}")
        for key, ty in HEADER.items():
            if not isinstance(rec.get(key), ty) or (ty is int and not is_int(rec[key])):
                bad(f"header field {key!r} must be a {ty.__name__}")
        if rec["bench"] != name:
            bad(f"bench is {rec['bench']!r}")
        if rec["nproc"] <= 0 or rec["threads"] <= 0:
            bad("nproc and threads must be positive")
        for key, value in rec.items():
            if key not in HEADER and not (value is None or isinstance(value, (str, int, float, bool))):
                bad(f"context field {key!r} must be a scalar")
        rows = rec["rows"]
        if not rows:
            bad("rows is empty")
        ns = {}
        for row in rows:
            if not isinstance(row, dict) or set(row) - {"flop"} != {
                    "case", "variant", "ns", "baseline_variant", "speedup"}:
                bad(f"row {row!r} does not have the row fields")
            if not (isinstance(row["case"], str) and isinstance(row["variant"], str)):
                bad(f"row {row!r}: case and variant must be strings")
            if not (is_int(row["ns"]) and row["ns"] > 0):
                bad(f"row {row!r}: ns must be a positive integer")
            if "flop" in row and not (is_int(row["flop"]) and row["flop"] > 0):
                bad(f"row {row!r}: flop must be a positive integer")
            key = (row["case"], row["variant"])
            if key in ns:
                bad(f"(case, variant) {key} repeats")
            ns[key] = row["ns"]
        for row in rows:
            base, speedup = row["baseline_variant"], row["speedup"]
            if base is None:
                if speedup is not None:
                    bad(f"row {row!r}: speedup without a baseline_variant")
                continue
            if not isinstance(base, str) or (row["case"], base) not in ns:
                bad(f"row {row!r}: baseline_variant names no row of case {row['case']!r}")
            if isinstance(speedup, bool) or not isinstance(speedup, (int, float)):
                bad(f"row {row!r}: speedup must be a number")
            if abs(speedup - ns[(row["case"], base)] / row["ns"]) > 0.0005 + 1e-9:
                bad(f"row {row!r}: speedup disagrees with the ns of {base!r}")
PYEOF

echo "ci: all gates passed"
