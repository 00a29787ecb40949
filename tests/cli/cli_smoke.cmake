# CLI smoke test: `nbclos flow-sim` must print the same JSON result with
# no --shards, --shards 1 and --shards 2, and `nbclos sim` the same
# routing, accepted-throughput and mean-latency lines with and without
# --shards 2.  A bad flow configuration and a routing the sharded engine
# cannot run must be usage errors (exit 2) whose message names no source
# file.
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

# The lines of `nbclos sim` output that must not depend on --shards: the
# header up to the offered load (topology, routing, traffic), accepted
# throughput and mean latency.
function(sim_summary out_var)
  execute_process(COMMAND ${NBCLOS} sim 4 8 0.9 thm3 ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nbclos sim 4 8 0.9 thm3 ${ARGN} exited ${rc}: ${err}")
  endif()
  string(REGEX MATCH "^[^\n]*offered 0\\.9" header "${out}")
  string(REGEX MATCH "accepted throughput:[^\n]*" accepted "${out}")
  string(REGEX MATCH "mean latency:[^\n]*" latency "${out}")
  if(header STREQUAL "" OR accepted STREQUAL "" OR latency STREQUAL "")
    message(FATAL_ERROR "unexpected nbclos sim output:\n${out}")
  endif()
  set(${out_var} "${header}\n${accepted}\n${latency}" PARENT_SCOPE)
endfunction()

sim_summary(serial)
sim_summary(sharded --shards 2)
if(NOT serial STREQUAL sharded)
  message(FATAL_ERROR "sim output changed with --shards 2:\n${sharded}\n"
                      "without --shards:\n${serial}")
endif()
if(NOT serial MATCHES ", thm3, ")
  message(FATAL_ERROR "sim does not print the requested routing:\n${serial}")
endif()

# Routings an engine cannot run are usage errors, not runtime errors.
foreach(bad IN ITEMS "sim 4 8 0.9 adaptive --shards 2"
                     "sim 4 8 0.9 random --shards 2"
                     "sim kary:4,3 0.5 adaptive"
                     "flow-sim kary:4,3 0.5 thm3")
  separate_arguments(args UNIX_COMMAND "${bad}")
  execute_process(COMMAND ${NBCLOS} ${args}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "nbclos ${bad} exited ${rc}, want 2: ${err}")
  endif()
  if(err MATCHES "\\.cpp:")
    message(FATAL_ERROR "nbclos ${bad} leaked a source location: ${err}")
  endif()
endforeach()
