# CLI smoke test: `nbclos flow-sim` must print the same JSON result with
# no --shards, --shards 1 and --shards 2, and `nbclos sim` the same
# routing, accepted-throughput and mean-latency lines with and without
# --shards 2; `nbclos saturation` the same saturation load on 1 and 2
# threads.  A bad flow configuration, a routing the sharded engine
# cannot run, and malformed or out-of-range `nbclos verify` arguments must
# be usage errors (exit 2) whose message names no source file; so must a
# malformed number or an oversized ftree on any other command, with a
# message that names the offending argument.
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
if(err MATCHES "\\.(cpp|hpp):")
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

# `nbclos saturation` prints the same saturation load on 1 and 2 threads
# (only the thread count in its closing parenthesis may differ).
set(reference "")
foreach(threads IN ITEMS 1 2)
  execute_process(COMMAND ${NBCLOS} saturation 2 4 dmodk 1 ${threads}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nbclos saturation 2 4 dmodk 1 ${threads} exited "
                        "${rc}: ${err}")
  endif()
  string(REGEX MATCH "saturation load:[^\n]*" line "${out}")
  string(REGEX REPLACE "[0-9]+ threads" "N threads" line "${line}")
  if(line STREQUAL "")
    message(FATAL_ERROR "unexpected nbclos saturation output:\n${out}")
  endif()
  if(reference STREQUAL "")
    set(reference "${line}")
  elseif(NOT line STREQUAL reference)
    message(FATAL_ERROR "saturation changed with ${threads} threads:\n"
                        "${line}\non 1 thread:\n${reference}")
  endif()
endforeach()

# Routings an engine cannot run, and verify arguments that are not
# numbers, lack a value, describe no ftree, break the Theorem 3 condition
# m >= n^2, name no mode, or exceed the route cache's 16-bit top ids, are
# usage errors, not runtime errors.
foreach(bad IN ITEMS "sim 4 8 0.9 adaptive --shards 2"
                     "sim 4 8 0.9 random --shards 2"
                     "sim kary:4,3 0.5 adaptive"
                     "flow-sim kary:4,3 0.5 thm3"
                     "verify 4 8 random --trials x"
                     "verify 4 8 random --trials"
                     "verify 0 8 random"
                     "verify 4 8 random --m 3"
                     "verify 4 8 bogus"
                     "verify 2 4 adversarial dmodk --m 65534")
  separate_arguments(args UNIX_COMMAND "${bad}")
  execute_process(COMMAND ${NBCLOS} ${args}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "nbclos ${bad} exited ${rc}, want 2: ${err}")
  endif()
  if(err MATCHES "\\.(cpp|hpp):")
    message(FATAL_ERROR "nbclos ${bad} leaked a source location: ${err}")
  endif()
endforeach()

# Numeric arguments of every command parse strictly: a non-number, a
# negative count, a zero `verify --trials`, or an ftree too large for
# 32-bit link ids is a usage error whose message names the argument.  So
# is every value out of its declared range, a topology shape the library
# cannot build (an offset the shift permutation cannot use, a k-ary tree
# past 32-bit ids, a schedule, circuit or fault sweep its library code
# would reject), an unknown flag or switching mode, an extra word, and a
# global option with no value.  None of them runs anything: stdout stays
# empty (each entry: command|pattern).
foreach(bad IN ITEMS "certify 100000|n = 100000"
                     "verify 8 64 random thm3 --trials 0|--trials"
                     "saturation 4 x thm3|<r> must be an unsigned integer"
                     "circuit 2 3 4 -5|\\[steps\\] must be an unsigned integer"
                     "sim 4 8 1.5 dmodk|<load>"
                     "load-sweep 4 8 dmodk 2.0|\\[rates_csv\\]"
                     "sim 1 2 0.5 dmodk|<n> \\+ 1"
                     "sim kary:2,1 0.5 dmodk|K \\+ 1"
                     "sim kary:1,3 0.5 dmodk|K of kary:K,H"
                     "sim kary:100,100 0.5 dmodk|kary:100,100"
                     "sim 4 8 0.5 dmodk --shards 0|--shards"
                     "flow-sim 4 8 0.5 --shards 0|--shards"
                     "schedule 0 0|<n>"
                     "schedule 1 4|<n>"
                     "circuit 3 2 1|<r>"
                     "fault-sweep 4 8 1000|<max_failures>"
                     "fault-sweep 4 8 2 0|\\[perms\\]"
                     "flow-sim 4 8 0.5 --switching foo|--switching"
                     "flow-sim 4 8 0.5 --bogus|--bogus"
                     "certify 4 8 extra|extra"
                     "load-sweep 4 8 dmodk 0.5 2 junk|junk"
                     "sim 4 8 0.5 dmodk --seed 3|--seed"
                     "certify 4 --metrics|--metrics"
                     "design 10 x|\\[target_ports\\]")
  string(REPLACE "|" ";" parts "${bad}")
  list(GET parts 0 command)
  list(GET parts 1 pattern)
  separate_arguments(args UNIX_COMMAND "${command}")
  execute_process(COMMAND ${NBCLOS} ${args}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "nbclos ${command} exited ${rc}, want 2: ${err}")
  endif()
  # The reason is the first line; the usage text follows it.
  string(REGEX MATCH "^[^\n]*" reason "${err}")
  if(NOT reason MATCHES "${pattern}")
    message(FATAL_ERROR "nbclos ${command} did not name the argument: ${err}")
  endif()
  if(err MATCHES "\\.(cpp|hpp):" OR err MATCHES "precondition failed")
    message(FATAL_ERROR "nbclos ${command} leaked a precondition: ${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "nbclos ${command} printed before rejecting:\n${out}")
  endif()
endforeach()
