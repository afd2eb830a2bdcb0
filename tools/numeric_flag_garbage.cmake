# Numeric flags parse to their end: trailing garbage, an out-of-range
# value or an out-of-domain one is one error line naming the flag, exit 1,
# nothing on stdout, before any world exists. `--ranks 8x` used to run 8
# ranks, `--dt abc` read 0 and `--eager -1` wrapped to 2^64 - 1.
function(expect_rejected label pattern)
  # A flag that slips through could start a daemon: the timeout turns that
  # into a failure instead of a hang.
  execute_process(
    COMMAND ${ARGN}
    TIMEOUT 60
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
# Past 2^53 a flag value rounds on its way to double, possibly onto the
# bound: 2^53 + 1 must be rejected, not read as 2^53.
expect_rejected("mpisect-replay replay --eager 9007199254740993"
  "^mpisect-replay: param 'eager' must be an integer in \\[0, 9007199254740992\\]\n$"
  ${REPLAY} replay --trace no-such-trace.mpst --eager 9007199254740993)
# Seeds and counts go through support::check_int like the daemon's params,
# before the trace is read: on a real trace, --fault-seed -1 used to run
# with seed 2^64 - 1 and --chunk-events 0 silently meant 16384 (exit 0).
set(trace "${CMAKE_CURRENT_BINARY_DIR}/numeric_flag_garbage.mpst")
execute_process(
  COMMAND ${REPLAY} record --app convolution --ranks 2 --steps 1
          --out ${trace}
  OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "recording ${trace} failed: exit ${rc}")
endif()
foreach(sub replay timeline sweep)
  expect_rejected("mpisect-replay ${sub} --fault-seed -1"
    "^mpisect-replay: param 'fault-seed' must be an integer in \\[0, 9007199254740992\\]\n$"
    ${REPLAY} ${sub} --trace ${trace} --fault-seed -1)
endforeach()
expect_rejected("mpisect-report --seed -1"
  "^mpisect-report: param 'seed' must be an integer in \\[0, 9007199254740992\\]\n$"
  ${REPORT} --app convolution --ranks 2 --steps 1 --seed -1)
expect_rejected("mpisect-replay record --seed 9007199254740993"
  "^mpisect-replay: param 'seed' must be an integer in \\[0, 9007199254740992\\]\n$"
  ${REPLAY} record --app convolution --ranks 2 --steps 1
  --seed 9007199254740993 --out ${trace}.unused)
foreach(v 0 -1 16777217)
  expect_rejected("mpisect-replay compress --chunk-events ${v}"
    "^mpisect-replay: param 'chunk-events' must be an integer in \\[1, 16777216\\]\n$"
    ${REPLAY} compress --in ${trace} --out ${trace}z --chunk-events ${v})
endforeach()
file(REMOVE ${trace} ${trace}z ${trace}.unused)
# The daemon's port and cache flags, and top's display flags, checked
# before any socket, cache or world exists: `--port 70000` used to bind
# port 4464 and `--cache-entries -1` a near-2^64 cache.
foreach(v -1 70000)
  expect_rejected("mpisect-serve serve --port ${v}"
    "^mpisect-serve: param 'port' must be an integer in \\[0, 65535\\]\n$"
    ${SERVE} serve --port ${v})
endforeach()
expect_rejected("mpisect-serve client --port 70000"
  "^mpisect-serve: param 'port' must be an integer in \\[1, 65535\\]\n$"
  ${SERVE} client --port 70000 --script no-such-script.jsonl)
foreach(cmd "serve" "query;--script;no-such-script.jsonl")
  expect_rejected("mpisect-serve ${cmd} --cache-entries -1"
    "^mpisect-serve: param 'cache-entries' must be an integer in \\[0, 16777216\\]\n$"
    ${SERVE} ${cmd} --cache-entries -1)
  expect_rejected("mpisect-serve ${cmd} --cache-mb -1"
    "^mpisect-serve: param 'cache-mb' must be an integer in \\[0, 1048576\\]\n$"
    ${SERVE} ${cmd} --cache-mb -1)
endforeach()
expect_rejected("mpisect-top --depth -1"
  "^mpisect-top: param 'depth' must be an integer in \\[0, 1024\\]\n$"
  ${TOP} --app convolution --ranks 4 --steps 1 --no-live --depth -1)
expect_rejected("mpisect-top --top -1"
  "^mpisect-top: param 'top' must be an integer in \\[0, 1048576\\]\n$"
  ${TOP} --app convolution --ranks 4 --steps 1 --no-live --top -1)
foreach(v 0 -250)
  expect_rejected("mpisect-top --refresh-ms ${v}"
    "^mpisect-top: param 'refresh-ms' must be an integer in \\[1, 3600000\\]\n$"
    ${TOP} --app convolution --ranks 4 --steps 1 --no-live --refresh-ms ${v})
endforeach()
