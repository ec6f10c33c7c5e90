# End-to-end checkpoint/resume smoke for `nncs_verify --scenario acasxu`,
# run as a ctest `cmake -P` script (see tools/CMakeLists.txt):
#
#   1. reference run  (--threads 1, --canonical-report)
#   2. same run at --threads 8: the canonical report CSV must be
#      byte-identical (deterministic leaf order, timing stripped)
#   3. a run with a microscopic --time-budget: must exit 3 (interrupted)
#      and write a checkpoint
#   4. --resume from that checkpoint: must exit 0 and reproduce the
#      reference report byte-for-byte
#
# Required -D variables: CLI (the nncs_verify binary), NETS (network cache
# dir), OUT (scratch directory for the generated files).

if(NOT DEFINED CLI OR NOT DEFINED NETS OR NOT DEFINED OUT)
  message(FATAL_ERROR "smoke_cli_resume: pass -DCLI=... -DNETS=... -DOUT=...")
endif()

file(MAKE_DIRECTORY ${OUT})
set(COMMON --scenario acasxu --arcs 4 --headings 4 --depth 0 --steps 10 --m 4
    --order 3 --nets ${NETS} --quiet --canonical-report)

function(run_cli expected_code log)
  execute_process(COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE code OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT code EQUAL expected_code)
    message(FATAL_ERROR "${log}: expected exit ${expected_code}, got ${code}\n"
                        "stdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
  message(STATUS "${log}: exit ${code} (as expected)")
endfunction()

run_cli(0 "reference run (threads 1)" ${COMMON} --threads 1
  --report ${OUT}/reference.csv)
run_cli(0 "threads-8 run" ${COMMON} --threads 8
  --report ${OUT}/threads8.csv)

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
  ${OUT}/reference.csv ${OUT}/threads8.csv RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "canonical report differs between --threads 1 and --threads 8")
endif()
message(STATUS "threads 1 vs threads 8: canonical reports byte-identical")

# Exit code 3 = interrupted (here by the expired budget), checkpoint written.
run_cli(3 "budget-interrupted run" ${COMMON} --threads 4 --time-budget 0.000001
  --checkpoint ${OUT}/checkpoint.csv)
if(NOT EXISTS ${OUT}/checkpoint.csv)
  message(FATAL_ERROR "interrupted run left no checkpoint file")
endif()

run_cli(0 "resumed run" ${COMMON} --threads 4 --resume ${OUT}/checkpoint.csv
  --report ${OUT}/resumed.csv)

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
  ${OUT}/reference.csv ${OUT}/resumed.csv RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "resumed report differs from the uninterrupted reference")
endif()
message(STATUS "resume reproduced the uninterrupted report byte-for-byte")
