#!/usr/bin/env bash
# End-to-end contract of `swfomc serve`, driven through a pipe exactly the
# way a client process would drive it (registered as the tier-1 ctest
# `cli_serve_e2e`): one JSONL request per line in, one compact JSON
# response per line out, in order. The session mixes golden-corpus
# queries, a warm-cache repeat, a malformed line, and a budget-exhausted
# compile — the daemon must answer every line (errors are per-request,
# never fatal) and exit 0 on `quit`.
#
# Usage: scripts/serve_e2e.sh path/to/swfomc
set -u

bin="${1:?usage: serve_e2e.sh path/to/swfomc}"
failures=0

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

requests="$workdir/requests.jsonl"
responses="$workdir/responses.jsonl"

cat > "$requests" <<'EOF'
{"id": 1, "sentence": "forall x forall y S(x,y)", "domain": 3, "weights": [{"S": ["2", "1"]}]}
{"id": 2, "sentence": "forall x forall y S(x,y)", "domain": 3, "weights": [{"S": ["2", "1"]}, {"S": ["3", "1"]}]}
this line is not JSON
{"id": 3, "sentence": "forall x exists y S(x,y)", "domain": 3}
{"id": 4, "sentence": "exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))", "domain": 7, "max_decisions": 0}
{"id": 5, "cmd": "stats"}
{"id": 6, "cmd": "metrics"}
{"cmd": "quit"}
EOF

"$bin" serve < "$requests" > "$responses"
code=$?
if [[ "$code" != 0 ]]; then
  echo "FAIL: serve exited $code (want 0)"
  failures=1
fi

lines=$(wc -l < "$responses")
if [[ "$lines" != 8 ]]; then
  echo "FAIL: $lines response lines (want 8, one per request)"
  cat "$responses"
  failures=1
fi

# check LINE_NO DESCRIPTION PATTERN...: the response on that line must
# contain every pattern (fixed strings against the compact JSON).
check() {
  local line_no="$1" desc="$2"
  shift 2
  local line
  line="$(sed -n "${line_no}p" "$responses")"
  local pattern
  for pattern in "$@"; do
    if ! grep -qF -- "$pattern" <<< "$line"; then
      echo "FAIL: response $line_no ($desc) lacks $pattern"
      echo "  got: $line"
      failures=1
      return
    fi
  done
  echo "ok: response $line_no: $desc"
}

check 1 "cold golden query" \
  '"id":1' '"status":"ok"' '"wfomc":"512"' '"cached":false'
check 2 "warm batch over the cached circuit" \
  '"id":2' '"cached":true' '"wfomc":"512"' '"wfomc":"19683"'
check 3 "malformed line gets a per-request error" '"status":"error"'
check 4 "daemon keeps serving after the error" \
  '"id":3' '"status":"ok"' '"wfomc":"343"'
check 5 "exhausted compile degrades to certified bounds" \
  '"id":4' '"status":"ok"' '"compile_outcome":"aborted"' \
  '"outcome":"bounds"' '"lower"' '"upper"'
check 6 "stats reflect the session" \
  '"id":5' '"cache_hits":1' '"errors":1' '"circuits":2' \
  '"evicted_bytes":0' '"circuit_bytes_peak":'
check 7 "metrics command answers with an exposition" \
  '"id":6' '"status":"ok"' '"exposition":'
check 8 "quit acknowledges and closes" '"status":"ok"' '"bye":true'

# The exposition rides JSON-escaped inside response 7; unescape it and
# hold it to the Prometheus text-format grammar plus the session's
# ground-truth counts (5 requests before the stats line, plus stats
# itself, were counted when the scrape ran; one was the malformed error;
# id1/id3/id4 missed the circuit cache, id2 hit it).
exposition_line="$(sed -n '7p' "$responses")"
metrics="$workdir/metrics.txt"
grep -oE '"exposition":"(\\.|[^"\\])*"' <<< "$exposition_line" \
  | sed -e 's/^"exposition":"//' -e 's/"$//' \
  | sed -e 's/\\n/\n/g' -e 's/\\"/"/g' > "$metrics"
if [[ ! -s "$metrics" ]]; then
  echo "FAIL: metrics response carries no exposition text"
  failures=1
else
  bad="$(grep -vE '^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? -?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?)$' "$metrics" || true)"
  if [[ -n "$bad" ]]; then
    echo "FAIL: exposition lines break the text-format grammar:"
    echo "$bad"
    failures=1
  else
    echo "ok: exposition parses ($(grep -cv '^#' "$metrics") samples)"
  fi
  expect_metric() {
    local name="$1" value="$2"
    if grep -qE "^${name} ${value}\$" "$metrics"; then
      echo "ok: metric $name = $value"
    else
      echo "FAIL: metric $name != $value"
      grep "^${name} " "$metrics" || echo "  ($name absent)"
      failures=1
    fi
  }
  expect_metric swfomc_serve_requests_total 6
  expect_metric swfomc_serve_errors_total 1
  expect_metric swfomc_serve_cache_hits_total 1
  expect_metric swfomc_serve_cache_misses_total 3
  expect_metric swfomc_serve_cache_circuits 2
  expect_metric swfomc_serve_batch_size_count 4
fi

# Second session: the circuit cache through the real binary. A lifted
# circuit compiled at domain 3 answers domain 5 from the cache, and a
# sentence over fewer relations never reuses another sentence's circuit.
cat > "$requests" <<'EOF'
{"id": 1, "sentence": "forall x exists y S(x,y)", "domain": 3}
{"id": 2, "sentence": "forall x exists y S(x,y)", "domain": 5}
{"id": 3, "sentence": "forall x S(x)", "domain": 3}
{"cmd": "quit"}
EOF

"$bin" serve < "$requests" > "$responses"
code=$?
if [[ "$code" != 0 ]]; then
  echo "FAIL: second serve session exited $code (want 0)"
  failures=1
fi
check 1 "lifted circuit compiled at domain 3" \
  '"id":1' '"kind":"lifted"' '"cached":false' '"wfomc":"343"'
check 2 "domain 5 reuses the lifted circuit" \
  '"id":2' '"cached":true' '"wfomc":"28629151"'
check 3 "a different sentence gets its own circuit" \
  '"id":3' '"cached":false' '"wfomc":"1"'
check 4 "quit acknowledges and closes" '"status":"ok"' '"bye":true'

exit "$failures"
