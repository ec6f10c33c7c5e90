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
#   5. --resume from crafted checkpoints whose leaf depth is -1, 2^32-1,
#      or deeper than --depth, whose frontier cell has the wrong
#      dimension, lies outside its root cell or has an infinite bound,
#      that lists one leaf twice, or whose cells leave roots uncovered:
#      must exit 1 with a message, not crash
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

# Exit code 1 = the checkpoint is rejected. A leaf depth of -1 would index
# far past the report's per-depth counts: the parser refuses it (and
# 2^32-1, which does not fit an int), and the engine refuses a depth beyond
# the run's --depth.
set(CRAFTED_HEAD "nncs-checkpoint v1,16\ninterior,0,0,0,0,0,0,0,0,0\nleaves,1\n")
set(CRAFTED_TAIL ",proved-safe,0,0,0,0,0,0,0,0,0,1,-0.3,0,-0.3,0\nfrontier,0\n")
foreach(depth -1 4294967295 1)
  file(WRITE ${OUT}/crafted_depth.ckpt "${CRAFTED_HEAD}0,${depth}${CRAFTED_TAIL}")
  run_cli(1 "resume from a leaf at depth ${depth}" ${COMMON} --threads 2
    --resume ${OUT}/crafted_depth.ckpt)
endforeach()
# Frontier cells a run never makes: the engine refuses a cell of the wrong
# dimension and one outside its root cell (root 0 spans x in [0, 8000]),
# and the parser refuses a non-finite bound. Analyzed, either of the last
# two would come out proved-safe and count as coverage.
set(CRAFTED_CELL_HEAD
  "nncs-checkpoint v1,16\ninterior,0,0,0,0,0,0,0,0,0\nleaves,0\nfrontier,1\n0,0,0,")
set(ROOT0_TAIL "-8000,0,-1.5707963267948966,-0.39269908169872414,700,700,600,600\n")
function(refuse_cell what bounds)
  file(WRITE ${OUT}/crafted_cell.ckpt "${CRAFTED_CELL_HEAD}${bounds}")
  run_cli(1 "resume from a frontier cell: ${what}" ${COMMON} --threads 2
    --resume ${OUT}/crafted_cell.ckpt)
endfunction()
refuse_cell("wrong dimension" "-0.3,0\n")
refuse_cell("x outside its root cell" "9000,9500,${ROOT0_TAIL}")
refuse_cell("x = [inf, inf]" "inf,inf,${ROOT0_TAIL}")
# Root 0's own cell twice as a proved-safe leaf: the cells of one root must
# not overlap, or one 6.25 % cell would be reported as 12.5 % coverage.
set(ROOT0_LEAF "0,0,proved-safe,0,0,0,0,0,0,0,0,0,0,9.7971743931788159e-13,8000.0000000000009,")
set(ROOT0_LEAF "${ROOT0_LEAF}-8000.0000000000009,4.898587196589418e-13,")
set(ROOT0_LEAF "${ROOT0_LEAF}-1.5707963267948966,-0.39269908169872414,700,700,600,600\n")
file(WRITE ${OUT}/crafted_overlap.ckpt "nncs-checkpoint v1,16\ninterior,0,0,0,0,0,0,0,0,0\n"
  "leaves,2\n${ROOT0_LEAF}${ROOT0_LEAF}frontier,0\n")
run_cli(1 "resume from a checkpoint listing one leaf twice" ${COMMON} --threads 2
  --resume ${OUT}/crafted_overlap.ckpt)
# Root 0's cell alone as a proved-safe leaf, with an empty frontier: roots
# 1-15 never ran, so the cells must cover every root, or the run would
# report 6.25 % coverage as a complete result.
file(WRITE ${OUT}/crafted_uncovered.ckpt "nncs-checkpoint v1,16\ninterior,0,0,0,0,0,0,0,0,0\n"
  "leaves,1\n${ROOT0_LEAF}frontier,0\n")
run_cli(1 "resume from a checkpoint whose cells do not cover their roots" ${COMMON}
  --threads 2 --resume ${OUT}/crafted_uncovered.ckpt)
