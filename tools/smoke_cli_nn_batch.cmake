# End-to-end smoke for the batched NN-propagation kernels' back ends
# (`NNCS_NN_SIMD`), run as a ctest `cmake -P` script (see
# tools/CMakeLists.txt): `NNCS_NN_SIMD=portable` forces the non-AVX2 back
# end and must still byte-match the default run's canonical report — lane
# arithmetic is identical across ISAs — in the box loop domain and, through
# the zonotope SoA kernels, in `--domain zonotope`.
#
# Required -D variables: VERIFY (binary), NETS (acasxu network cache dir),
# OUT (scratch directory).

foreach(var VERIFY NETS OUT)
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
endfunction()

function(expect_identical log a b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR "${log}: canonical reports differ (${a} vs ${b})")
  endif()
  message(STATUS "${log}: byte-identical")
endfunction()

set(FLAGS --scenario acasxu --arcs 4 --headings 4 --depth 1 --steps 10
    --m 4 --order 3 --nets ${NETS} --threads 2 --quiet --canonical-report)

foreach(domain box zonotope)
  run_cli("${domain}: dispatched back end" ${VERIFY} ${FLAGS} --domain ${domain}
    --report ${OUT}/${domain}_default.csv)
  run_cli("${domain}: portable back end" ${CMAKE_COMMAND} -E env NNCS_NN_SIMD=portable
    ${VERIFY} ${FLAGS} --domain ${domain} --report ${OUT}/${domain}_portable.csv)
  expect_identical("${domain}: dispatched vs portable back end"
    ${OUT}/${domain}_default.csv ${OUT}/${domain}_portable.csv)
endforeach()
