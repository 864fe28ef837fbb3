# `claims a5` runs four sweeps: with CASCACHE_RESULTS_CSV=<dir>/a5.csv it
# must leave exactly a5.a5-1.csv .. a5.a5-4.csv, each a header and one row.
# Expects -DCLAIMS=, -DWORK_DIR=.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND ${CMAKE_COMMAND} -E env CASCACHE_BENCH_SCALE=0.01
                        "CASCACHE_RESULTS_CSV=${WORK_DIR}/a5.csv" "${CLAIMS}" a5
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
file(GLOB files "${WORK_DIR}/*")
list(LENGTH files count)
if(NOT rc EQUAL 0 OR NOT count EQUAL 4)
  message(FATAL_ERROR "claims a5 exited ${rc}, wrote ${files}\n${err}")
endif()
foreach(n 1 2 3 4)
  file(STRINGS "${WORK_DIR}/a5.a5-${n}.csv" lines)
  list(LENGTH lines rows)
  if(NOT rows EQUAL 2)
    message(FATAL_ERROR "a5.a5-${n}.csv has ${rows} lines, expected 2")
  endif()
endforeach()
