#!/usr/bin/env bash
# serve-smoke: end-to-end check of the serving stack. Trains a small
# census model, starts gef_serve on an ephemeral loopback port, probes
# every endpoint through gef_loadgen --check (healthz, models, predict,
# explain, malformed-input 400, metrics), verifies the surrogate cache
# answered the repeated explain without a second fit, and finally
# SIGTERMs the server expecting a clean drain (exit 0). A second phase
# packs the model into a binary store (gef_store pack + verify), boots
# gef_serve --store from the mmap, and asserts the store metrics
# (store.mmap_bytes / store.load_ms) plus the same single-fit cache
# behavior across processes. A third phase saturates a deliberately
# tiny server (1 shard, 1 worker, queue capacity 1): the surplus must
# shed with 429 + Retry-After, serve.shed must increment, and /healthz
# must keep answering on the reactor's inline path throughout.
set -euo pipefail

DATASETS_BIN=$1
TRAIN_BIN=$2
SERVE_BIN=$3
LOADGEN_BIN=$4
STORE_BIN=$5
WORK_DIR=$6

mkdir -p "$WORK_DIR"

# start_server LOG ARGS... — starts gef_serve ARGS on an ephemeral port
# with its output in LOG, arms a kill trap, and sets SERVER_PID and PORT.
# LOG is created before the server starts, so the port poll never reads
# a file that does not exist yet.
start_server() {
  local log=$1
  shift
  : > "$log"
  "$SERVE_BIN" --port 0 "$@" > "$log" 2>&1 &
  SERVER_PID=$!
  trap 'kill -9 $SERVER_PID 2>/dev/null || true' EXIT
  PORT=""
  for _ in $(seq 1 100); do
    PORT=$(sed -n 's/^listening on [0-9.]*:\([0-9]*\)$/\1/p' "$log" \
      | head -1)
    [ -n "$PORT" ] && return 0
    sleep 0.1
  done
  echo "server never reported its port ($log):"
  cat "$log"
  exit 1
}

"$DATASETS_BIN" --name census --out "$WORK_DIR/census.csv" \
  --rows 800 --seed 3 > /dev/null
"$TRAIN_BIN" --data "$WORK_DIR/census.csv" --out "$WORK_DIR/model.txt" \
  --objective binary --trees 20 --leaves 8 > /dev/null

start_server "$WORK_DIR/serve.log" --model "$WORK_DIR/model.txt" \
  --name census --univariate 3 --samples 1500 --k 16

# Two passes: the second repeats /v1/explain with the identical config,
# which must be a cache hit (exactly one GEF fit overall).
"$LOADGEN_BIN" --port "$PORT" --check
"$LOADGEN_BIN" --port "$PORT" --check
"$LOADGEN_BIN" --port "$PORT" --connections 2 --duration-s 1 \
  > "$WORK_DIR/loadgen.log"
cat "$WORK_DIR/loadgen.log"

METRICS_SNAPSHOT="$WORK_DIR/metrics.txt"
"$LOADGEN_BIN" --port "$PORT" --check > /dev/null  # refresh counters
kill -0 $SERVER_PID  # still alive

# An invalid config override is a 400, never a crash: /healthz still
# answers 200 afterwards. The row is the first CSV row minus its target.
ROW=$(sed -n 2p "$WORK_DIR/census.csv")
BAD_BODY="{\"row\":[${ROW%,*}],\"config\":{\"num_univariate\":0}}"
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf 'POST /v1/explain HTTP/1.1\r\nHost: smoke\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s' \
  "${#BAD_BODY}" "$BAD_BODY" >&3
cat <&3 > "$WORK_DIR/bad_config.txt" || true
exec 3<&- 3>&-
if ! grep -q " 400 " "$WORK_DIR/bad_config.txt"; then
  echo "invalid config override was not answered 400:"
  cat "$WORK_DIR/bad_config.txt"
  exit 1
fi
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf 'GET /healthz HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n' >&3
cat <&3 > "$WORK_DIR/healthz_after_bad_config.txt"
exec 3<&- 3>&-
grep -q " 200 " "$WORK_DIR/healthz_after_bad_config.txt"

# Scrape /metrics via a plain TCP request from bash (no curl in image).
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf 'GET /metrics HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n' >&3
cat <&3 > "$METRICS_SNAPSHOT"
exec 3<&- 3>&-

FITS=$(sed -n 's/^serve.gef_fits \([0-9]*\)$/\1/p' "$METRICS_SNAPSHOT")
HITS=$(sed -n 's/^serve.surrogate_cache.hits \([0-9]*\)$/\1/p' \
  "$METRICS_SNAPSHOT")
if [ "$FITS" != "1" ]; then
  echo "expected exactly one GEF fit, saw '$FITS'"
  exit 1
fi
if [ -z "$HITS" ] || [ "$HITS" -lt 1 ]; then
  echo "expected surrogate cache hits > 0, saw '$HITS'"
  exit 1
fi

kill -TERM $SERVER_PID
WAIT_STATUS=0
wait $SERVER_PID || WAIT_STATUS=$?
trap - EXIT
if [ "$WAIT_STATUS" -ne 0 ]; then
  echo "server did not drain cleanly (exit $WAIT_STATUS):"
  cat "$WORK_DIR/serve.log"
  exit 1
fi
grep -q "drained, exiting" "$WORK_DIR/serve.log"

echo "serve smoke passed (port $PORT, fits=$FITS, cache hits=$HITS)"

# ---- Store phase: pack -> verify -> serve from the mmap ----

"$STORE_BIN" pack --out "$WORK_DIR/model.gefs" \
  --model census="$WORK_DIR/model.txt" > /dev/null
"$STORE_BIN" verify "$WORK_DIR/model.gefs" > /dev/null

start_server "$WORK_DIR/serve_store.log" --store "$WORK_DIR/model.gefs" \
  --univariate 3 --samples 1500 --k 16
grep -q "mmap-loaded model 'census'" "$WORK_DIR/serve_store.log"

# Same single-flight contract as the text-loaded server: the repeated
# explain must be answered by the cache (one fit in this process).
"$LOADGEN_BIN" --port "$PORT" --check
"$LOADGEN_BIN" --port "$PORT" --check
"$LOADGEN_BIN" --port "$PORT" --connections 2 --duration-s 1 \
  > "$WORK_DIR/loadgen_store.log"
cat "$WORK_DIR/loadgen_store.log"

STORE_METRICS="$WORK_DIR/metrics_store.txt"
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf 'GET /metrics HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n' >&3
cat <&3 > "$STORE_METRICS"
exec 3<&- 3>&-

MMAP_BYTES=$(sed -n 's/^store.mmap_bytes \([0-9.]*\)$/\1/p' "$STORE_METRICS")
LOAD_MS=$(sed -n 's/^store.load_ms \([0-9.e+-]*\)$/\1/p' "$STORE_METRICS")
FITS=$(sed -n 's/^serve.gef_fits \([0-9]*\)$/\1/p' "$STORE_METRICS")
HITS=$(sed -n 's/^serve.surrogate_cache.hits \([0-9]*\)$/\1/p' \
  "$STORE_METRICS")
if [ -z "$MMAP_BYTES" ] || [ "${MMAP_BYTES%%.*}" -le 0 ]; then
  echo "expected store.mmap_bytes > 0, saw '$MMAP_BYTES'"
  exit 1
fi
if [ -z "$LOAD_MS" ]; then
  echo "expected a store.load_ms metric, saw none"
  exit 1
fi
if [ "$FITS" != "1" ]; then
  echo "expected exactly one GEF fit in the store-backed server, saw '$FITS'"
  exit 1
fi
if [ -z "$HITS" ] || [ "$HITS" -lt 1 ]; then
  echo "expected surrogate cache hits > 0 in the store-backed server, " \
       "saw '$HITS'"
  exit 1
fi

kill -TERM $SERVER_PID
WAIT_STATUS=0
wait $SERVER_PID || WAIT_STATUS=$?
trap - EXIT
if [ "$WAIT_STATUS" -ne 0 ]; then
  echo "store-backed server did not drain cleanly (exit $WAIT_STATUS):"
  cat "$WORK_DIR/serve_store.log"
  exit 1
fi
grep -q "drained, exiting" "$WORK_DIR/serve_store.log"

echo "store smoke passed (port $PORT, mmap_bytes=$MMAP_BYTES," \
     "load_ms=$LOAD_MS, fits=$FITS, cache hits=$HITS)"

# ---- Overload phase: 1 shard, 1 worker, queue capacity 1 — the
# surplus of a saturating burst must shed with 429 + Retry-After while
# the shard's inline GET path keeps /healthz and /metrics responsive ----

start_server "$WORK_DIR/serve_overload.log" --model "$WORK_DIR/model.txt" \
  --name census --shards 1 --workers 1 --queue-capacity 1 \
  --univariate 3 --samples 500000 --k 64

# One close-mode GET via /dev/tcp (no curl in the image).
http_get() {
  exec 9<>"/dev/tcp/127.0.0.1/$PORT"
  printf 'GET %s HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n' \
    "$1" >&9
  cat <&9 > "$2"
  exec 9<&- 9>&-
}

# Send a POST on a numbered fd and leave it open — the response is
# collected later so several requests can be in flight at once.
post_on_fd() {
  local fd=$1 target=$2 body=$3
  eval "exec $fd<>\"/dev/tcp/127.0.0.1/$PORT\""
  printf 'POST %s HTTP/1.1\r\nHost: smoke\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s' \
    "$target" "${#body}" "$body" >&"$fd"
}

http_get /v1/models "$WORK_DIR/models_overload.txt"
WIDTH=$(sed -n 's/.*"features":\([0-9]*\).*/\1/p' \
  "$WORK_DIR/models_overload.txt")
if [ -z "$WIDTH" ] || [ "$WIDTH" -lt 1 ]; then
  echo "could not read the model width from /v1/models"
  exit 1
fi
ROW="0.5"
for _ in $(seq 2 "$WIDTH"); do ROW="$ROW,0.5"; done
BODY="{\"row\":[$ROW]}"

# Occupy the only worker with a long surrogate fit (500k samples), then
# wait until the fit is actually running — the explain counter bumps at
# handler entry, and /metrics answers inline while the worker is busy.
post_on_fd 3 /v1/explain "$BODY"
EXPLAINS=""
for _ in $(seq 1 300); do
  http_get /metrics "$WORK_DIR/metrics_poll.txt"
  EXPLAINS=$(sed -n 's/^serve.requests.explain \([0-9]*\)$/\1/p' \
    "$WORK_DIR/metrics_poll.txt")
  [ "$EXPLAINS" = "1" ] && break
  sleep 0.01
done
if [ "$EXPLAINS" != "1" ]; then
  echo "explain never reached the worker (saw '$EXPLAINS')"
  exit 1
fi

# Saturating burst: three predicts against a capacity-1 queue. One is
# admitted (answered once the fit finishes); the surplus sheds now.
post_on_fd 4 /v1/predict "$BODY"
post_on_fd 5 /v1/predict "$BODY"
post_on_fd 6 /v1/predict "$BODY"

# The server must stay responsive while saturated.
http_get /healthz "$WORK_DIR/healthz_overload.txt"
grep -q " 200 " "$WORK_DIR/healthz_overload.txt"
grep -q '"ok"' "$WORK_DIR/healthz_overload.txt"

cat <&4 > "$WORK_DIR/burst_responses.txt"; exec 4<&- 4>&-
cat <&5 >> "$WORK_DIR/burst_responses.txt"; exec 5<&- 5>&-
cat <&6 >> "$WORK_DIR/burst_responses.txt"; exec 6<&- 6>&-

SHED_429=$(grep -c " 429 " "$WORK_DIR/burst_responses.txt" || true)
RETRY_AFTER=$(grep -c "^Retry-After:" "$WORK_DIR/burst_responses.txt" \
  || true)
if [ "$SHED_429" -lt 1 ]; then
  echo "saturating burst produced no 429s:"
  cat "$WORK_DIR/burst_responses.txt"
  exit 1
fi
if [ "$RETRY_AFTER" -lt "$SHED_429" ]; then
  echo "429 responses missing Retry-After ($RETRY_AFTER of $SHED_429):"
  cat "$WORK_DIR/burst_responses.txt"
  exit 1
fi
grep -q " 200 " "$WORK_DIR/burst_responses.txt" \
  || { echo "no burst predict was admitted"; exit 1; }

# The fit itself completes and answers 200.
cat <&3 > "$WORK_DIR/explain_overload.txt"; exec 3<&- 3>&-
grep -q " 200 " "$WORK_DIR/explain_overload.txt" \
  || { echo "in-flight explain failed under overload:"; \
       cat "$WORK_DIR/explain_overload.txt"; exit 1; }

http_get /metrics "$WORK_DIR/metrics_overload.txt"
SHED=$(sed -n 's/^serve.shed \([0-9]*\)$/\1/p' \
  "$WORK_DIR/metrics_overload.txt")
if [ -z "$SHED" ] || [ "$SHED" -lt 1 ]; then
  echo "expected serve.shed >= 1 after the burst, saw '$SHED'"
  exit 1
fi

# Open-loop mode end-to-end: offered load beyond the tiny server's
# capacity keeps the tool exit 0 (sheds are not errors) and reports
# honest intended-send-time latencies.
"$LOADGEN_BIN" --port "$PORT" --open-loop --target-qps 3000 \
  --connections 2 --duration-s 1 \
  > "$WORK_DIR/loadgen_openloop.log"
cat "$WORK_DIR/loadgen_openloop.log"
grep -q "mode=open-loop" "$WORK_DIR/loadgen_openloop.log"

kill -TERM $SERVER_PID
WAIT_STATUS=0
wait $SERVER_PID || WAIT_STATUS=$?
trap - EXIT
if [ "$WAIT_STATUS" -ne 0 ]; then
  echo "overload server did not drain cleanly (exit $WAIT_STATUS):"
  cat "$WORK_DIR/serve_overload.log"
  exit 1
fi
grep -q "drained, exiting" "$WORK_DIR/serve_overload.log"

echo "overload smoke passed (port $PORT, burst 429s=$SHED_429," \
     "serve.shed=$SHED)"
