# Cross-process history independence (docs/SERVICE.md "Caching semantics"):
# one pglb_serve process answers a fixed set of out-of-coverage requests in
# file order, a second one in reverse order.  Every request is planned on
# the proxy its own alpha names, so each id must get byte-identical answers.
# Driven by ctest (tests/CMakeLists.txt): -DPGLB_SERVE=<binary> -DWORKDIR=<dir>.

set(machines "\"machines\":[\"m4.2xlarge\",\"c4.2xlarge\"]")
set(requests
  "{\"id\":\"oc-0\",\"app\":\"pagerank\",${machines},\"alpha\":1.05}"
  "{\"id\":\"oc-1\",\"app\":\"pagerank\",${machines},\"alpha\":1.5}"
  "{\"id\":\"oc-2\",\"app\":\"pagerank\",${machines},\"alpha\":2.6}"
  "{\"id\":\"oc-3\",\"app\":\"pagerank\",${machines},\"alpha\":2.5}"
  "{\"id\":\"oc-4\",\"app\":\"pagerank\",${machines},\"alpha\":2.8}"
  "{\"id\":\"oc-5\",\"app\":\"pagerank\",${machines},\"alpha\":3.0}"
  "{\"id\":\"oc-6\",\"app\":\"pagerank\",${machines},\"alpha\":3.2}"
  "{\"id\":\"oc-7\",\"app\":\"pagerank\",${machines},\"alpha\":7.5}"
  "{\"id\":\"oc-8\",\"app\":\"pagerank\",${machines},\"alpha\":1e308}"
  "{\"id\":\"oc-9\",\"app\":\"connected_components\",\"machines\":[\"c4.xlarge\",\"c4.4xlarge\"],\"alpha\":3.0}"
  "{\"id\":\"oc-10\",\"app\":\"pagerank\",${machines},\"vertices\":1000,\"edges\":1000000}"
  "{\"id\":\"oc-11\",\"app\":\"coloring\",${machines},\"vertices\":100000,\"edges\":0}")
list(LENGTH requests count)

set(forward "")
set(backward "")
foreach(request IN LISTS requests)
  string(APPEND forward "${request}\n")
  string(PREPEND backward "${request}\n")
endforeach()

file(MAKE_DIRECTORY ${WORKDIR})
foreach(order forward backward)
  file(WRITE ${WORKDIR}/${order}.jsonl "${${order}}")
  execute_process(COMMAND ${PGLB_SERVE} --threads=2 --scale=0.002
                  INPUT_FILE ${WORKDIR}/${order}.jsonl
                  OUTPUT_VARIABLE ${order}_out ERROR_VARIABLE err RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "pglb_serve (${order}) exited ${code}: ${err}")
  endif()
endforeach()
file(REMOVE_RECURSE ${WORKDIR})

math(EXPR last "${count} - 1")
foreach(i RANGE ${last})
  string(REGEX MATCH "{\"id\":\"oc-${i}\"[^\n]*" in_order "${forward_out}")
  string(REGEX MATCH "{\"id\":\"oc-${i}\"[^\n]*" reversed "${backward_out}")
  if(NOT in_order MATCHES "\"status\":\"ok\"" OR in_order MATCHES "degraded")
    message(FATAL_ERROR "oc-${i} was not planned cleanly: ${in_order}")
  endif()
  if(NOT in_order STREQUAL reversed)
    message(FATAL_ERROR "oc-${i} depends on request order:\n${in_order}\n${reversed}")
  endif()
endforeach()
message(STATUS "history_independence: ${count} ids byte-identical in both orders")
