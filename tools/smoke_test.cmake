# End-to-end CLI smoke test: generate -> stats -> profile -> partition -> run.
# Driven by ctest (see CMakeLists.txt in this directory).

function(run_step)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE code OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "step failed (${code}): ${ARGV}\n${out}\n${err}")
  endif()
endfunction()

set(graph ${WORKDIR}/smoke_graph.txt)
set(pool ${WORKDIR}/smoke_pool.tsv)
set(assignment ${WORKDIR}/smoke_assignment.txt)

run_step(${PGLB} generate --type=powerlaw --vertices=5000 --alpha=2.1 --out=${graph})
run_step(${PGLB} stats --graph=${graph})
run_step(${PGLB} profile --machines=xeon_server_s,xeon_server_l --apps=pagerank
         --scale=0.001 --out=${pool})
run_step(${PGLB} partition --graph=${graph} --machines=xeon_server_s,xeon_server_l
         --algorithm=hybrid --weights=${pool} --out=${assignment})
run_step(${PGLB} run --graph=${graph} --app=pagerank
         --machines=xeon_server_s,xeon_server_l --estimator=ccr --pool=${pool}
         --algorithm=hybrid --scale=0.001)

# Chrome-trace export: an oracle run profiles inline, so one invocation emits
# profiler, partitioner, and engine spans into a single valid trace file.
set(trace ${WORKDIR}/smoke_trace.json)
run_step(${PGLB} run --graph=${graph} --app=pagerank
         --machines=xeon_server_s,xeon_server_l --estimator=oracle
         --algorithm=hybrid --scale=0.001 --trace-out=${trace})
file(READ ${trace} trace_json)
foreach(needle "\"traceEvents\"" "profile.cell" "partition.hybrid" "engine.superstep")
  if(NOT trace_json MATCHES "${needle}")
    message(FATAL_ERROR "trace file is missing ${needle}")
  endif()
endforeach()
file(REMOVE ${trace})

# Format conversions + relabelling round trip.
set(mtx ${WORKDIR}/smoke_graph.mtx)
set(relabelled ${WORKDIR}/smoke_relabel.bin)
run_step(${PGLB} relabel --graph=${graph} --mode=degree --out=${mtx})
run_step(${PGLB} relabel --graph=${mtx} --mode=compact --out=${relabelled})
run_step(${PGLB} stats --graph=${relabelled})

file(REMOVE ${graph} ${pool} ${assignment} ${mtx} ${relabelled})

# Planning service round trip: three requests through pglb_serve's line
# protocol, answered in order with the expected statuses.
if(PGLB_SERVE)
  set(requests ${WORKDIR}/smoke_requests.jsonl)
  set(responses ${WORKDIR}/smoke_responses.jsonl)
  file(WRITE ${requests}
"{\"id\":\"s1\",\"app\":\"pagerank\",\"machines\":[\"xeon_server_s\",\"xeon_server_l\"],\"vertices\":1000000,\"edges\":10000000}
{\"id\":\"s2\",\"app\":\"coloring\",\"machines\":[\"m4.2xlarge\",\"c4.2xlarge\"],\"alpha\":2.1}
{\"id\":\"s3\",\"app\":\"pagerank\",\"machines\":[\"no_such_machine\"],\"alpha\":2.1}
{\"type\":\"metrics\"}
")
  execute_process(COMMAND ${PGLB_SERVE} --threads=2 --scale=0.002
                  INPUT_FILE ${requests} OUTPUT_FILE ${responses}
                  RESULT_VARIABLE code ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "pglb_serve failed (${code}):\n${err}")
  endif()
  file(STRINGS ${responses} response_lines)
  list(LENGTH response_lines num_responses)
  if(NOT num_responses EQUAL 4)
    message(FATAL_ERROR "expected 4 service responses, got ${num_responses}")
  endif()
  foreach(pair "0;s1;ok" "1;s2;ok" "2;s3;error")
    list(GET pair 0 index)
    list(GET pair 1 id)
    list(GET pair 2 status)
    list(GET response_lines ${index} line)
    if(NOT line MATCHES "\"id\":\"${id}\",\"status\":\"${status}\"")
      message(FATAL_ERROR "response ${index} should be id=${id} status=${status}: ${line}")
    endif()
  endforeach()
  # The metrics exposition must report the served requests and cache state.
  list(GET response_lines 3 metrics_line)
  foreach(needle "\"counters\"" "\"requests_total\":" "\"cache\"" "\"hits\"" "\"misses\"" "\"trace\"")
    if(NOT metrics_line MATCHES "${needle}")
      message(FATAL_ERROR "metrics response is missing ${needle}: ${metrics_line}")
    endif()
  endforeach()
  file(REMOVE ${requests} ${responses})
endif()

# Fleet smoke (docs/FLEET.md): pglb_router --spawn=3 fronting three pglb_serve
# children.  Drives the long-lived process over a FIFO so the test can: plan,
# read the router-side metrics (with the "fleet" health block), SIGKILL one
# backend, verify the next plan still succeeds (failover), then SIGTERM the
# router and insist on a clean drain (exit 0, children reaped).
if(PGLB_ROUTER AND EXISTS "/bin/bash")  # script mode: UNIX is not defined here
  set(router_script ${WORKDIR}/router_smoke.sh)
  file(WRITE ${router_script}
"set -eu
cd '${WORKDIR}'
rm -f rin rout.jsonl rerr.log
mkfifo rin
exec 3<>rin   # hold the write end open: router stdin must not see EOF
'${PGLB_ROUTER}' --spawn=3 --serve='${PGLB_SERVE}' \\
    --backend-threads=2 --scale=0.002 --probe-ms=100 <rin >rout.jsonl 2>rerr.log &
RPID=$!
for i in $(seq 1 600); do
  grep -q 'fronting 3' rerr.log 2>/dev/null && break; sleep 0.1
done
grep -q 'fronting 3' rerr.log
# Children bind ephemeral ports published under a per-run port-dir; its
# unique path doubles as the pgrep needle for liveness checks (no fixed
# port ranges, so parallel ctest runs cannot collide).
PORTDIR=$(sed -n 's/^pglb_router: port-dir //p' rerr.log | head -1)
[ -n \"$PORTDIR\" ]

send() { printf '%s\\n' \"$1\" >&3; }
await_lines() {
  for i in $(seq 1 600); do
    [ \"$(wc -l <rout.jsonl)\" -ge \"$1\" ] && return 0; sleep 0.1
  done
  echo 'timed out waiting for router responses' >&2; exit 1
}

send '{\"id\":\"r1\",\"app\":\"pagerank\",\"machines\":[\"m4.2xlarge\",\"c4.2xlarge\"],\"vertices\":1000000,\"edges\":10000000}'
send '{\"type\":\"metrics\",\"id\":\"m1\"}'
await_lines 2
grep -q '\"id\":\"r1\",\"status\":\"ok\"' rout.jsonl
grep -q '\"fleet\":{\"backends\":' rout.jsonl   # router-side metrics, never forwarded

kill -KILL \"$(pgrep -f \"port-file=$PORTDIR\" | head -1)\"   # one backend dies mid-run
send '{\"id\":\"r2\",\"app\":\"pagerank\",\"machines\":[\"m4.2xlarge\",\"c4.2xlarge\"],\"vertices\":1000000,\"edges\":10000000}'
await_lines 3
grep -q '\"id\":\"r2\",\"status\":\"ok\"' rout.jsonl  # failover kept planning

kill -TERM \"$RPID\"
wait \"$RPID\"                                  # set -e: non-zero exit fails here
grep -q 'drained after' rerr.log
if pgrep -f \"port-file=$PORTDIR\" >/dev/null; then
  echo 'pglb_serve children survived the drain' >&2; exit 1
fi
[ ! -e \"$PORTDIR\" ]                          # the drain removed the port dir

# One-shot pipe mode: stdin hits EOF while responses are still in flight, so
# the drain must wait for dequeued-but-unfinished work (regression: the
# writer once exited on eof+empty-queues and dropped in-flight responses).
printf '%s\\n%s\\n' \\
  '{\"id\":\"p1\",\"app\":\"pagerank\",\"machines\":[\"m4.2xlarge\",\"c4.2xlarge\"],\"vertices\":1000000,\"edges\":10000000}' \\
  '{\"id\":\"p2\",\"app\":\"pagerank\",\"machines\":[\"bogus_box\"],\"vertices\":10,\"edges\":10}' \\
  | '${PGLB_ROUTER}' --spawn=1 --serve='${PGLB_SERVE}' \\
      --backend-threads=2 --scale=0.002 >pipe.jsonl 2>/dev/null
[ \"$(wc -l <pipe.jsonl)\" -eq 2 ]             # one line per request, always
grep -q '\"id\":\"p1\",\"status\":\"ok\"' pipe.jsonl
grep -q '\"id\":\"p2\",\"status\":\"error\"' pipe.jsonl  # typed error passthrough

# Mixed-fleet byte identity (docs/WIRE.md): one line-JSON-only replica plus
# one binary-capable replica must serve responses byte-identical to a solo
# pglb_serve — the binary framing carries the SAME payload bytes.
printf '%s\\n%s\\n%s\\n%s\\n' \\
  '{\"id\":\"w1\",\"app\":\"pagerank\",\"machines\":[\"m4.2xlarge\",\"c4.2xlarge\"],\"vertices\":1000000,\"edges\":10000000}' \\
  '{\"id\":\"w2\",\"app\":\"coloring\",\"machines\":[\"xeon_server_s\",\"xeon_server_l\"],\"alpha\":2.1}' \\
  '{\"id\":\"w3\",\"app\":\"pagerank\",\"machines\":[\"m4.2xlarge\",\"c4.2xlarge\"],\"vertices\":1000000,\"edges\":10000000}' \\
  '{\"id\":\"w4\",\"app\":\"pagerank\",\"machines\":[\"bogus_box\"],\"alpha\":2.1}' >wreq.jsonl
'${PGLB_SERVE}' --threads=2 --scale=0.002 <wreq.jsonl >solo.jsonl 2>/dev/null
'${PGLB_ROUTER}' --spawn=2 --line-backends=1 --serve='${PGLB_SERVE}' \\
    --backend-threads=2 --scale=0.002 <wreq.jsonl >mixed.jsonl 2>/dev/null
cmp solo.jsonl mixed.jsonl
")
  execute_process(COMMAND bash ${router_script}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "router smoke failed (${code}):\n${out}\n${err}")
  endif()
  file(REMOVE ${router_script} ${WORKDIR}/rin ${WORKDIR}/rout.jsonl
       ${WORKDIR}/rerr.log ${WORKDIR}/pipe.jsonl)

  # Autoscale smoke (docs/AUTOSCALE.md): pglb_router --autoscale over a
  # one-replica floor.  A burst of coverage-missing plans (distinct alphas,
  # two apps each at --scale=0.01) builds queue pressure; the control loop
  # must scale up to max-replicas=3 (two extra replicas), drain back to the
  # floor once the burst passes, and expose a populated (cost, p99) Pareto
  # block in the router-side metrics.  Replicas bind ephemeral ports (the
  # port-file handshake); the per-run port-dir path is the pgrep needle.
  set(autoscale_script ${WORKDIR}/autoscale_smoke.sh)
  file(WRITE ${autoscale_script}
"set -eu
cd '${WORKDIR}'
rm -f asin asout.jsonl aserr.log
mkfifo asin
exec 3<>asin  # hold the write end open: router stdin must not see EOF
'${PGLB_ROUTER}' --spawn=1 --autoscale --max-replicas=3 --serve='${PGLB_SERVE}' \\
    --scale=0.01 --threads=8 --autoscale-ms=20 --sustain=2 \\
    --idle-samples=5 --cooldown-ms=200 --pressure=1.5 --idle=0.2 \\
    <asin >asout.jsonl 2>aserr.log &
RPID=$!
# A failed check must not leak the router or its replicas: kill anything
# still pointed at this run's private port-dir.
PORTDIR=''
trap 'set +e; kill -KILL \"$RPID\" 2>/dev/null; [ -n \"$PORTDIR\" ] && pkill -KILL -f \"port-file=$PORTDIR\" 2>/dev/null; true' EXIT
for i in $(seq 1 600); do
  grep -q 'fronting 1' aserr.log 2>/dev/null && break; sleep 0.1
done
grep -q 'fronting 1' aserr.log
PORTDIR=$(sed -n 's/^pglb_router: port-dir //p' aserr.log | head -1)
[ -n \"$PORTDIR\" ]

# 96 alphas spaced beyond the proxy coverage margin: every plan generates and
# profiles a fresh proxy, so the burst holds queue pressure on the fleet.
awk 'BEGIN { for (i = 0; i < 96; i++)
  printf(\"{\\\"id\\\":\\\"q%d\\\",\\\"app\\\":\\\"%s\\\",\\\"alpha\\\":%.1f,\\\"machines\\\":[\\\"c4.2xlarge\\\"]}\\n\",
         i, (i % 2 ? \"coloring\" : \"pagerank\"), 3.5 + 0.5 * i) }' >&3
for i in $(seq 1 900); do
  [ \"$(wc -l <asout.jsonl)\" -ge 96 ] && break; sleep 0.1
done
[ \"$(wc -l <asout.jsonl)\" -ge 96 ]
if grep -q '\"status\":\"error\"' asout.jsonl; then
  echo 'autoscale smoke: a plan request failed' >&2; exit 1
fi

for i in $(seq 1 300); do  # idle hysteresis drains the extras back to floor
  [ \"$(grep -c 'autoscale: drained' aserr.log)\" -ge 2 ] && break; sleep 0.1
done
[ \"$(grep -c 'autoscale: scale-up' aserr.log)\" -ge 2 ]  # floor -> 3 replicas
[ \"$(grep -c 'autoscale: drained' aserr.log)\" -ge 2 ]   # ...and back down

printf '{\"type\":\"metrics\",\"id\":\"am\"}\\n' >&3
for i in $(seq 1 600); do
  [ \"$(wc -l <asout.jsonl)\" -ge 97 ] && break; sleep 0.1
done
tail -1 asout.jsonl | grep -q '\"autoscale\":{'
tail -1 asout.jsonl | grep -q '\"pareto\":{'
tail -1 asout.jsonl | grep -q '\"frontier\":\\[{'

kill -TERM \"$RPID\"
wait \"$RPID\"                                  # set -e: non-zero exit fails here
grep -q 'drained after' aserr.log
if pgrep -f \"port-file=$PORTDIR\" >/dev/null; then
  echo 'pglb_serve replicas survived the drain' >&2; exit 1
fi
[ ! -e \"$PORTDIR\" ]                          # the drain removed the port dir
")
  execute_process(COMMAND bash ${autoscale_script}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "autoscale smoke failed (${code}):\n${out}\n${err}")
  endif()
  file(REMOVE ${autoscale_script} ${WORKDIR}/asin ${WORKDIR}/asout.jsonl
       ${WORKDIR}/aserr.log)
endif()
