# Numeric flags parse to their end: trailing garbage, an out-of-range
# value or an out-of-domain one is one error line naming the flag, exit 1,
# nothing on stdout, before any world exists. `--ranks 8x` used to run 8
# ranks, `--dt abc` read 0 and `--eager -1` wrapped to 2^64 - 1.
function(expect_rejected label pattern)
  execute_process(
    COMMAND ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "${label}: exit ${rc}, expected 1\n${out}${err}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "${label}: unexpected diagnostic:\n${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${label}: printed output:\n${out}")
  endif()
endfunction()

expect_rejected("mpisect-report --ranks 8x"
  "mpisect-report: option '--ranks' expects <int>, got '8x'"
  ${REPORT} --app convolution --ranks 8x --steps 1 --model ideal)
expect_rejected("mpisect-report --ranks 99999999999999999999"
  "option '--ranks' expects <int>, got '99999999999999999999'"
  ${REPORT} --app convolution --ranks 99999999999999999999 --steps 1)
expect_rejected("mpisect-top --dt abc"
  "mpisect-top: option '--dt' expects <float>, got 'abc'"
  ${TOP} --app convolution --ranks 4 --steps 1 --no-live --dt abc)
foreach(v 0 -1)
  expect_rejected("mpisect-top --dt ${v}"
    "^mpisect-top: --dt ${v} must be finite and > 0\n$"
    ${TOP} --app convolution --ranks 4 --steps 1 --no-live --dt ${v})
endforeach()
expect_rejected("mpisect-replay replay --eager -1"
  "^mpisect-replay: param 'eager' must be an integer in \\[0, 9007199254740992\\]\n$"
  ${REPLAY} replay --trace no-such-trace.mpst --eager -1)
