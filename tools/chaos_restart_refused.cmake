# --chaos refuses a scheduled restart (docs/CHAOS.md): a restarted replica
# comes back on a fresh port the proxy has no route to, so its traffic would
# bypass the chaos layer.  The run keeps the default --kill-at=40
# --restart-at=70 and must exit 2 with a message naming the conflict, before
# any process is spawned.  A pass regex alone would ignore the exit code, so
# this script checks both.
# Driven by ctest (see CMakeLists.txt in this directory).

execute_process(COMMAND ${PGLB_LOADGEN} --requests=12 --router=3
                        --server=${PGLB_SERVE} --chaos=reset%route:0
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "--chaos with a scheduled restart exited ${code}, "
          "want 2:\n${out}\n${err}")
endif()
if(NOT err MATCHES "--chaos needs --restart-at outside \\(0,100\\)")
  message(FATAL_ERROR "--chaos refusal did not name the conflict:\n${err}")
endif()
