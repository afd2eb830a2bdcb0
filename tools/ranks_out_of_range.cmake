# The integer flags that size a run are read through one checked reader
# (launch::int_flag): a value outside its bound is one error line naming
# the flag, exit 1, before any world exists. --ranks 4294967300 used to
# truncate to 4 ranks and exit 0.
function(expect_rejected tool_label flag value)
  execute_process(
    COMMAND ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR
      "${tool_label} --${flag} ${value}: exit ${rc}, expected 1\n${out}${err}")
  endif()
  if(NOT err MATCHES "^${tool_label}: --${flag} ${value} is outside \\[")
    message(FATAL_ERROR
      "${tool_label} --${flag} ${value}: unexpected diagnostic:\n${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR
      "${tool_label} --${flag} ${value}: printed output:\n${out}")
  endif()
endfunction()

foreach(v 4294967300 0 -1)
  expect_rejected(mpisect-report ranks ${v}
    ${REPORT} --app convolution --ranks ${v} --steps 1 --model ideal)
  expect_rejected(mpisect-replay ranks ${v}
    ${REPLAY} record --app convolution --ranks ${v} --steps 1
              --out oor.mpst)
endforeach()
# The other three sizing flags; --size 21474837 would overflow size*100.
expect_rejected(mpisect-replay steps 4294967297
  ${REPLAY} record --app convolution --ranks 4 --steps 4294967297
            --out oor.mpst)
expect_rejected(mpisect-replay size 21474837
  ${REPLAY} record --app convolution --ranks 4 --size 21474837
            --out oor.mpst)
expect_rejected(mpisect-replay threads 0
  ${REPLAY} record --app lulesh --ranks 8 --threads 0 --out oor.mpst)
if(EXISTS oor.mpst)
  message(FATAL_ERROR "a rejected record wrote oor.mpst")
endif()
