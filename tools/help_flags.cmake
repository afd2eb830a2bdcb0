# Pin the knob surface: every tool and subcommand's --help, reduced to one
# `<tool> --<flag>[=<default>]` line per flag and sorted, must equal the
# committed help_flags.txt. An added or dropped flag, or a changed
# default, shows up as a diff of that file; the order of flags does not.
set(commands
  "${REPORT}"
  "${CHECK}"
  "${DIFF}"
  "${ANALYZE}"
  "${TOP}"
  "${REPLAY} record" "${REPLAY} replay" "${REPLAY} info" "${REPLAY} sweep"
  "${REPLAY} timeline" "${REPLAY} compress" "${REPLAY} decompress"
  "${SERVE} serve" "${SERVE} client" "${SERVE} query")
set(lines "")
foreach(cmd IN LISTS commands)
  separate_arguments(argv UNIX_COMMAND "${cmd}")
  list(GET argv 0 exe)
  get_filename_component(tool "${exe}" NAME_WE)
  list(LENGTH argv argc)
  if(argc GREATER 1)
    list(GET argv 1 sub)
    set(tool "${tool} ${sub}")
  endif()
  execute_process(COMMAND ${argv} --help OUTPUT_VARIABLE usage)
  # Help texts may hold ';', which is CMake's list separator.
  string(REPLACE ";" "," usage "${usage}")
  string(REPLACE "\n" ";" usage_lines "${usage}")
  set(found 0)
  foreach(line IN LISTS usage_lines)
    if(line MATCHES "^  --([a-z0-9-]+)")
      set(flag "${CMAKE_MATCH_1}")
      if(line MATCHES "\\(default: ([^)]*)\\)$")
        list(APPEND lines "${tool} --${flag}=${CMAKE_MATCH_1}")
      else()
        list(APPEND lines "${tool} --${flag}")
      endif()
      math(EXPR found "${found} + 1")
    endif()
  endforeach()
  if(found EQUAL 0)
    message(FATAL_ERROR "${tool} --help listed no flags")
  endif()
endforeach()
list(SORT lines)
list(JOIN lines "\n" actual)
set(actual "${actual}\n")
file(WRITE help_flags.actual.txt "${actual}")
file(READ "${EXPECTED}" expected)
if(NOT actual STREQUAL expected)
  execute_process(
    COMMAND diff -u "${EXPECTED}" help_flags.actual.txt
    OUTPUT_VARIABLE delta)
  message(FATAL_ERROR
    "the tools' flags differ from ${EXPECTED}:\n${delta}\n"
    "Review the change; if intended, update the file from "
    "help_flags.actual.txt.")
endif()
