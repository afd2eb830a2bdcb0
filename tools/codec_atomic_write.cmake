# The codec writers of mpisect-replay (compress, decompress,
# record --compress) write a temp file and rename it over the target, so a
# failed or interrupted write leaves an existing target byte-identical:
#   1. a write killed by the file-size limit (SIGXFSZ) mid-file,
#   2. a write into a directory that refuses new files (skipped where the
#      user can write anyway, e.g. root).
set(dir "${CMAKE_CURRENT_BINARY_DIR}/atomic_write")
if(EXISTS "${dir}")
  execute_process(COMMAND chmod u+w "${dir}")  # left read-only by a failure
endif()
file(REMOVE_RECURSE "${dir}")
file(MAKE_DIRECTORY "${dir}")

execute_process(
  COMMAND ${REPLAY} record --app convolution --ranks 8 --steps 20
          --model nehalem-cluster --seed 77 --compress --out ${dir}/t.mpstz
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "record --compress failed (${rc})")
endif()
file(SIZE "${dir}/t.mpstz" packed_size)
if(packed_size LESS 4096)
  message(FATAL_ERROR "fixture too small (${packed_size} bytes) to be cut "
                      "by a 1-block file-size limit")
endif()
configure_file("${dir}/t.mpstz" "${dir}/golden.mpstz" COPYONLY)
execute_process(
  COMMAND ${REPLAY} decompress --in ${dir}/t.mpstz --out ${dir}/t.mpst
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "decompress failed (${rc})")
endif()
configure_file("${dir}/t.mpst" "${dir}/golden.mpst" COPYONLY)

function(expect_unchanged what target golden)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${target}" "${golden}"
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR "${what} changed the existing target ${target}")
  endif()
endfunction()

# 1. Interrupted: the file-size limit kills each writer mid-file. A writer
#    that opens the target itself leaves it cut short, and is caught.
set(cut "ulimit -f 1 && exec \"$0\" \"$@\"")
foreach(what IN ITEMS compress record decompress)
  if(what STREQUAL "compress")
    set(args compress --in ${dir}/golden.mpst --out ${dir}/t.mpstz
             --chunk-events 7)
    set(target t.mpstz)
  elseif(what STREQUAL "record")
    set(args record --app convolution --ranks 8 --steps 30
             --model nehalem-cluster --seed 5 --compress --out ${dir}/t.mpstz)
    set(target t.mpstz)
  else()
    set(args decompress --in ${dir}/golden.mpstz --out ${dir}/t.mpst)
    set(target t.mpst)
  endif()
  execute_process(
    COMMAND sh -c "${cut}" ${REPLAY} ${args}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(rc EQUAL 0)
    message(FATAL_ERROR "${what}: the 1-block file-size limit did not stop "
                        "the write")
  endif()
  string(REPLACE "t." "golden." golden "${target}")
  expect_unchanged("interrupted ${what}" "${dir}/${target}" "${dir}/${golden}")
endforeach()

# 2. Refused: a read-only directory cannot take the temp file.
execute_process(COMMAND chmod a-w "${dir}")
execute_process(COMMAND ${CMAKE_COMMAND} -E touch "${dir}/probe"
                ERROR_QUIET)
if(EXISTS "${dir}/probe")
  message(STATUS "directory stays writable for this user; leg 2 skipped")
else()
  execute_process(
    COMMAND ${REPLAY} compress --in ${dir}/golden.mpst --out ${dir}/t.mpstz
            --chunk-events 7
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "compress into a read-only directory succeeded")
  endif()
  if(NOT err MATCHES "mpisect-replay: cannot write")
    message(FATAL_ERROR "refused write lacks a diagnostic:\n${err}")
  endif()
  expect_unchanged("refused compress" "${dir}/t.mpstz" "${dir}/golden.mpstz")
endif()
execute_process(COMMAND chmod u+w "${dir}")
file(REMOVE_RECURSE "${dir}")
