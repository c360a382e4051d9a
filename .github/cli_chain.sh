#!/usr/bin/env bash
# The README's minimal scenario through the installed `radarvitals` script,
# one fresh process per command, with every table it writes checked against
# the in-process table strings, and the five tables of one `detect` call
# compared with those of `detect` + `vitals`. Then three bad recordings that
# `detect` must reject with exit code 3 and a data error, without a
# traceback: a nan sample, two samples that overflow the covariance sums and
# a header with the key `bogus 1`, which no reader takes and which
# `evaluate --truth` must reject the same way. `dump-spectrum` with `--out`
# naming its `--in` recording must exit 2 and leave it as it was. Last, a raw
# recording directory through `convert` and `detect`, then an empty
# profiles.npy, a nan profile sample and a profiles.npy of strings, which
# `convert` must reject with exit code 3, and a raw.kv with an unknown key,
# which it must reject with exit code 2. Run it from the repository root with
# `bash -e .github/cli_chain.sh`; any unexpected exit code fails it.
set -euo pipefail

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
python - "$dir/scene.kv" <<'EOF'
import re
import sys
text = open("README.md", encoding="utf-8").read()
(scenario,) = re.findall(r"A minimal scenario file.*?```\n(.*?)```", text, re.DOTALL)
open(sys.argv[1], "w", encoding="utf-8").write(scenario)
EOF
radarvitals simulate --scenario "$dir/scene.kv" --out "$dir/rec.rvc"
radarvitals detect --in "$dir/rec.rvc" --out "$dir/det.csv" --order-diagnostics "$dir/order.csv"
radarvitals vitals --in "$dir/rec.rvc" --out "$dir/eta.csv" --breathing-out "$dir/breath.csv" \
  --periodogram-out "$dir/pgram.csv"
radarvitals detect --in "$dir/rec.rvc" --out "$dir/one_det.csv" --order-diagnostics "$dir/one_order.csv" \
  --vitals-out "$dir/one_eta.csv" --breathing-out "$dir/one_breath.csv" --periodogram-out "$dir/one_pgram.csv"
for name in det order eta breath pgram; do cmp "$dir/$name.csv" "$dir/one_$name.csv"; done
radarvitals evaluate --in "$dir/det.csv" --truth "$dir/rec.rvc" --breathing "$dir/breath.csv" --out "$dir/report.csv"
radarvitals dump-spectrum --in "$dir/rec.rvc" --out "$dir/spectrum.csv"
radarvitals dump-spectrum --in "$dir/rec.rvc" --out "$dir/segment1.csv" --segment 1

# each file holds the bytes of its pipeline.*_csv string from a run in this
# process on the same container
python - "$dir" <<'EOF'
import sys
import radarvitals as rv
from radarvitals import pipeline
d = sys.argv[1]
result = rv.run_pipeline(f"{d}/rec.rvc")
header = rv.read_header(f"{d}/rec.rvc")
with rv.ContainerReader(f"{d}/rec.rvc") as reader:
    truth = reader.ground_truth
config = rv.PipelineConfig()
rows = slice(config.l_st, 2 * config.l_st + config.w_st - 1)
with rv.ContainerReader(f"{d}/rec.rvc", rows) as own:
    segment1 = rv.run_pipeline(own, config, vitals=False).accumulated
expected = {
    "det.csv": pipeline.detections_csv(result),
    "order.csv": pipeline.order_diagnostics_csv(result),
    "eta.csv": pipeline.vitals_csv(result),
    "breath.csv": pipeline.breathing_csv(result),
    "pgram.csv": pipeline.periodogram_csv(result),
    "report.csv": pipeline.report_csv(rv.evaluate_result(result, truth),
                                      header.get("meta.id", ""), header.get("meta.obstacle", "")),
    "spectrum.csv": pipeline.spectrum_csv(result.accumulated),
    "segment1.csv": pipeline.spectrum_csv(segment1),
}
for name, text in expected.items():
    if open(f"{d}/{name}", "rb").read() != text.encode("utf-8"):
        sys.exit(f"{name} differs from its pipeline table string")
EOF

# the recording written back with one nan sample inside a segment, and with
# two finite samples large enough to overflow the covariance sums; its bytes
# with a stray header key
python - "$dir/rec.rvc" "$dir" <<'EOF'
import sys
import numpy as np
import radarvitals as rv
data = open(sys.argv[1], "rb").read()
with open(f"{sys.argv[2]}/stray.rvc", "wb") as fh:
    fh.write(data.replace(b"\nend_header\n", b"\nbogus 1\nend_header\n", 1))
cube = rv.read_container(sys.argv[1])
cube.samples[1000, 4, 5] = np.nan
rv.write_container(cube, f"{sys.argv[2]}/nan.rvc")
cube.samples[[1000, 1001], 4, 5] = 1e160
rv.write_container(cube, f"{sys.argv[2]}/big.rvc")
EOF

# detect on recording $1 exits 3 with a data error matching $2, no traceback
expect_data_error() {
  local code=0
  radarvitals detect --in "$dir/$1.rvc" --out "$dir/$1.csv" 2> "$dir/$1.err" || code=$?
  cat "$dir/$1.err"
  test "$code" -eq 3
  grep -q "$2" "$dir/$1.err"
  if grep -q Traceback "$dir/$1.err"; then exit 1; fi
}
expect_data_error nan "data error: .* is (nan"
expect_data_error big "data error: .* are finite, but"
expect_data_error stray "data error: .*unknown container header key 'bogus'"
# evaluate reads the header by the same rule
code=0
radarvitals evaluate --in "$dir/det.csv" --truth "$dir/stray.rvc" 2> "$dir/stray_eval.err" || code=$?
cat "$dir/stray_eval.err"
test "$code" -eq 3
grep -q "data error: .*unknown container header key 'bogus'" "$dir/stray_eval.err"
if grep -q Traceback "$dir/stray_eval.err"; then exit 1; fi

# an output that names an input exits 2 before anything is read or written
sha=$(sha256sum "$dir/rec.rvc")
code=0
radarvitals dump-spectrum --in "$dir/rec.rvc" --out "$dir/rec.rvc" 2> "$dir/same.err" || code=$?
cat "$dir/same.err"
test "$code" -eq 2
grep -q "error: --in and --out name one path" "$dir/same.err"
test "$(sha256sum "$dir/rec.rvc")" = "$sha"

# a raw recording directory one segment long, of the sensor's array with
# 256-point range profiles instead of its 8192, which would take 280 MB
python - "$dir/raw" <<'EOF'
import sys
sys.path.insert(0, "tests")
import radarvitals as rv
from helpers import breather, raw_recording_of, scene_of
cfg = rv.RadarConfig(f0=6.3e9, k=137, b=1.7e9, n=256, delta=0.02, m_r=4, m_t=2, f_st=10.0)
cube = rv.simulate(scene_of([breather(2.0, 0.0)], l=300, noise_std=0.1, seed=1), cfg)
rv.write_raw_dir(sys.argv[1], raw_recording_of(cube), cfg)
EOF
radarvitals convert --raw "$dir/raw" --out "$dir/conv.rvc"
radarvitals detect --in "$dir/conv.rvc" --out "$dir/conv_det.csv"

# the file holds the detections of the directory converted in this process
python - "$dir" <<'EOF'
import sys
import radarvitals as rv
from radarvitals import pipeline
d = sys.argv[1]
result = rv.run_pipeline(rv.convert_recording(*rv.read_raw_dir(f"{d}/raw")), vitals=False)
if not result.final_detections.detections:
    sys.exit("the converted recording gives no detection")
if open(f"{d}/conv_det.csv", "rb").read() != pipeline.detections_csv(result).encode("utf-8"):
    sys.exit("conv_det.csv differs from the detections of the directory converted in process")
EOF

# convert on directory $1 exits 3 with a data error matching $2, no
# traceback and no --out
expect_convert_data_error() {
  local code=0
  radarvitals convert --raw "$dir/$1" --out "$dir/$1.rvc" 2> "$dir/$1.err" || code=$?
  cat "$dir/$1.err"
  test "$code" -eq 3
  grep -q "$2" "$dir/$1.err"
  if grep -q Traceback "$dir/$1.err"; then exit 1; fi
  test ! -e "$dir/$1.rvc"
}
# copies of the directory with an empty profiles.npy and with a nan profile sample
cp -r "$dir/raw" "$dir/raw_empty"
: > "$dir/raw_empty/profiles.npy"
expect_convert_data_error raw_empty "data error: .*cannot load raw arrays: profiles.npy"
cp -r "$dir/raw" "$dir/raw_nan"
python - "$dir/raw_nan/profiles.npy" <<'EOF'
import sys
import numpy as np
profiles = np.load(sys.argv[1])
profiles[5, 2, 7] = np.nan
np.save(sys.argv[1], profiles)
EOF
expect_convert_data_error raw_nan "data error: .*profiles: sample \\[5, 2, 7\\] is (nan"
# and a copy whose profiles.npy holds strings of the same shape
cp -r "$dir/raw" "$dir/raw_str"
python - "$dir/raw_str/profiles.npy" <<'EOF'
import sys
import numpy as np
np.save(sys.argv[1], np.full(np.load(sys.argv[1], mmap_mode="r").shape, "a"))
EOF
expect_convert_data_error raw_str "data error: .*profiles must be bool, int, float or complex"

# convert exits 2 naming a raw.kv key it does not know, without a traceback
echo "bogus 1" >> "$dir/raw/raw.kv"
code=0
radarvitals convert --raw "$dir/raw" --out "$dir/bogus.rvc" 2> "$dir/bogus.err" || code=$?
cat "$dir/bogus.err"
test "$code" -eq 2
grep -q "unknown raw.kv key 'bogus'" "$dir/bogus.err"
if grep -q Traceback "$dir/bogus.err"; then exit 1; fi
