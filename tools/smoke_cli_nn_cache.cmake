# End-to-end NN query cache smoke for `nncs_verify --scenario acasxu`, run
# as a ctest `cmake -P` script (see tools/CMakeLists.txt):
#
#   1. --nn-cache off reference run (--canonical-report)
#   2. default run (no --nn-cache): the default is off, so the canonical
#      report must be byte-identical to the reference; the phases line must
#      show controller time (8x4 is the smallest partition whose cells
#      survive the t=0 error check long enough to query the NN)
#   3. --nn-cache memo (the retired exact-match-only mode) is rejected as an
#      unknown value with the usage exit code 2
#   4. --nn-cache containment on the larger 8x4 --depth 1 partition:
#      refinement children are subsets of their parents' boxes, so
#      containment reuse must actually fire (reuse only counts as a hit when
#      the re-concretized bounds prune a command) — the stats line on stdout
#      must report a nonzero hit count
#   5. pendulum --domain zonotope: relational queries bypass the cache, so
#      the containment run's canonical report byte-matches the off run's and
#      its stats line reads 0 lookups
#
# Required -D variables: CLI (the nncs_verify binary), NETS and PEND_NETS
# (acasxu and pendulum network cache dirs), OUT (scratch directory for the
# generated files).

foreach(var CLI NETS PEND_NETS OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "smoke_cli_nn_cache: pass -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY ${OUT})
set(COMMON --scenario acasxu --steps 10 --m 4 --order 3 --threads 4
    --nets ${NETS} --quiet --canonical-report)

function(run_cli expected_code log out_var)
  execute_process(COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE code OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT code EQUAL expected_code)
    message(FATAL_ERROR "${log}: expected exit ${expected_code}, got ${code}\n"
                        "stdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
  message(STATUS "${log}: exit ${code} (as expected)")
  set(${out_var} "${stdout}" PARENT_SCOPE)
endfunction()

run_cli(0 "nn-cache off run" off_stdout ${COMMON} --arcs 8 --headings 4 --depth 0
  --nn-cache off --report ${OUT}/off.csv)
if(off_stdout MATCHES "nn-cache")
  message(FATAL_ERROR "off run printed a cache stats line:\n${off_stdout}")
endif()
message(STATUS "off run prints no cache stats line (cache disabled), as expected")

run_cli(0 "nn-cache default run" default_stdout ${COMMON} --arcs 8 --headings 4 --depth 0
  --report ${OUT}/default.csv)
if(default_stdout MATCHES "nn-cache")
  message(FATAL_ERROR "default run printed a cache stats line:\n${default_stdout}")
endif()
if(NOT default_stdout MATCHES "phases: [^\n]*controller ([0-9.]+) s")
  message(FATAL_ERROR "default run printed no phases line:\n${default_stdout}")
endif()
if(CMAKE_MATCH_1 STREQUAL "0.00")
  message(FATAL_ERROR "default run spent no time in the controller — the partition "
                      "never queried the NN, the byte-compare is vacuous:\n${default_stdout}")
endif()
message(STATUS "default run queried the NN: controller ${CMAKE_MATCH_1} s")

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
  ${OUT}/off.csv ${OUT}/default.csv RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "canonical report differs between --nn-cache off and the default")
endif()
message(STATUS "off vs default: canonical reports byte-identical")

run_cli(2 "retired --nn-cache memo is rejected" memo_stdout ${COMMON} --arcs 8 --headings 4
  --depth 0 --nn-cache memo)

run_cli(0 "nn-cache containment run" cont_stdout ${COMMON} --arcs 8 --headings 4
  --depth 1 --nn-cache containment --report ${OUT}/containment.csv)
if(NOT cont_stdout MATCHES "nn-cache \\(containment\\): ([0-9]+) hits")
  message(FATAL_ERROR "containment run printed no cache stats line:\n${cont_stdout}")
endif()
if(CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "containment run recorded zero cache hits on a depth-1 "
                      "refinement run:\n${cont_stdout}")
endif()
message(STATUS "containment reuse fired: ${CMAKE_MATCH_1} hits")

set(PEND_FLAGS --scenario pendulum --domain zonotope --threads 4 --nets ${PEND_NETS}
    --quiet --canonical-report)
run_cli(0 "pendulum zonotope, nn-cache off" pend_off_stdout ${PEND_FLAGS} --nn-cache off
  --report ${OUT}/pendulum_off.csv)
run_cli(0 "pendulum zonotope, nn-cache containment" pend_cont_stdout ${PEND_FLAGS}
  --nn-cache containment --report ${OUT}/pendulum_containment.csv)
if(NOT pend_cont_stdout MATCHES "nn-cache \\(containment\\): 0 hits / 0 lookups")
  message(FATAL_ERROR "zonotope containment run looked up the cache:\n${pend_cont_stdout}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
  ${OUT}/pendulum_off.csv ${OUT}/pendulum_containment.csv RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "pendulum zonotope canonical report differs between --nn-cache "
                      "containment and off")
endif()
message(STATUS "pendulum zonotope: containment bypassed (0 lookups), report byte-identical to off")
