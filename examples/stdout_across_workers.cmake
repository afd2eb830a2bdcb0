# Run ${EXAMPLE} at MPISECT_WORKERS=1 and =4 and require byte-identical
# stdout and exit code 0 from both.
foreach(w 1 4)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env MPISECT_WORKERS=${w} ${EXAMPLE}
    OUTPUT_VARIABLE out_${w}
    RESULT_VARIABLE rc_${w})
  if(NOT rc_${w} EQUAL 0)
    message(FATAL_ERROR "${EXAMPLE} at MPISECT_WORKERS=${w}: exit ${rc_${w}}")
  endif()
endforeach()
if(NOT out_1 STREQUAL out_4)
  message(FATAL_ERROR "stdout differs between MPISECT_WORKERS=1 and 4:\n"
                      "--- 1 ---\n${out_1}--- 4 ---\n${out_4}")
endif()
