# End-to-end smoke for the batched NN-propagation path under the engine's
# scheduling, run as a ctest `cmake -P` script (see tools/CMakeLists.txt):
# the acasxu canonical report at --threads 1 must byte-match the one at
# --threads 4 at depth 1, in the zonotope domain (zonotope SoA kernels) and
# in the symbolic domain (the box loop on the symbolic SoA kernels; it needs
# 8 arcs, since the 4x4 cells fail at t=0 before reaching the controller). The two runs'
# --metrics-out artifacts must compare clean: no thread count enters their
# scale, and their canonical results and counters match exactly. Each
# artifact's provenance records the thread count its run used. The
# single-threaded runs must spend nonzero time in the controller, so the
# comparison covers the NN path.
#
# Required -D variables: VERIFY (binary), COMPARE (nncs_bench_compare),
# NETS (acasxu network cache dir), OUT (scratch directory).

foreach(var VERIFY COMPARE NETS OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "smoke_cli_nn_batch: pass -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY ${OUT})

function(run_cli log)
  execute_process(COMMAND ${ARGN}
    RESULT_VARIABLE code OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${log}: expected exit 0, got ${code}\n"
                        "stdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
  message(STATUS "${log}: exit 0")
  set(last_stdout "${stdout}" PARENT_SCOPE)
endfunction()

function(expect_identical log a b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR "${log}: canonical reports differ (${a} vs ${b})")
  endif()
  message(STATUS "${log}: byte-identical")
endfunction()

set(FLAGS --scenario acasxu --headings 4 --depth 1 --steps 10 --m 4 --order 3
    --nets ${NETS} --quiet --canonical-report)

foreach(leg "zonotope;4" "symbolic;8")
  list(GET leg 0 domain)
  list(GET leg 1 arcs)
  set(args ${FLAGS} --domain ${domain} --arcs ${arcs})
  run_cli("${domain}: threads 1" ${VERIFY} ${args} --threads 1
    --report ${OUT}/${domain}_threads1.csv --metrics-out ${OUT}/${domain}_threads1.json)
  string(REGEX MATCH "controller ([0-9.]+) s" phase "${last_stdout}")
  if(NOT phase OR CMAKE_MATCH_1 EQUAL 0)
    message(FATAL_ERROR "${domain}: the run never reached the controller\n${last_stdout}")
  endif()
  message(STATUS "${domain}: controller phase ${CMAKE_MATCH_1} s")
  run_cli("${domain}: threads 4" ${VERIFY} ${args} --threads 4
    --report ${OUT}/${domain}_threads4.csv --metrics-out ${OUT}/${domain}_threads4.json)
  expect_identical("${domain}: threads 1 vs threads 4"
    ${OUT}/${domain}_threads1.csv ${OUT}/${domain}_threads4.csv)
  foreach(threads 1 4)
    file(READ ${OUT}/${domain}_threads${threads}.json artifact)
    string(JSON recorded GET "${artifact}" provenance nncs_threads)
    if(NOT recorded EQUAL threads)
      message(FATAL_ERROR "${domain}: the --threads ${threads} artifact records "
                          "nncs_threads ${recorded}")
    endif()
  endforeach()
  message(STATUS "${domain}: each artifact records its own thread count")
  # Wall clock differs between the runs, so only the canonical section
  # gates: any drift there exits 2.
  run_cli("${domain}: threads 1 vs threads 4 artifacts" ${COMPARE} --quiet
    --max-regress 1000000 ${OUT}/${domain}_threads1.json ${OUT}/${domain}_threads4.json)
endforeach()
