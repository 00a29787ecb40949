# CLI smoke test: `nbclos flow-sim` must print the same JSON result with
# no --shards, --shards 1 and --shards 2, and a bad flow configuration
# must be a usage error (exit 2) whose message names no source file.
#
#   cmake -DNBCLOS=<path to the nbclos binary> -P cli_smoke.cmake
if(NOT NBCLOS)
  message(FATAL_ERROR "pass -DNBCLOS=<path to the nbclos binary>")
endif()

set(reference "")
foreach(shards IN ITEMS "" 1 2)
  set(args flow-sim 4 8 0.9 --json)
  if(shards)
    list(APPEND args --shards ${shards})
  endif()
  execute_process(COMMAND ${NBCLOS} ${args}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nbclos ${args} exited ${rc}: ${err}")
  endif()
  string(JSON result GET "${out}" result)
  if(reference STREQUAL "")
    set(reference "${result}")
  elseif(NOT result STREQUAL reference)
    message(FATAL_ERROR "flow-sim result changed with --shards ${shards}:\n"
                        "${result}\nwithout --shards:\n${reference}")
  endif()
endforeach()

execute_process(COMMAND ${NBCLOS} flow-sim 4 8 0.9 --vcs 0
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "flow-sim --vcs 0 exited ${rc}, want 2: ${err}")
endif()
if(err MATCHES "\\.cpp:")
  message(FATAL_ERROR "flow-sim --vcs 0 leaked a source location: ${err}")
endif()
