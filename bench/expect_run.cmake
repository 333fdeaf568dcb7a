# cmake -DBIN=<binary> "-DARGS=a|b|..." -DRC=<exit status>
#       "-DEXPECT=text|text|..." -P expect_run.cmake
# Passes when `BIN a b ...` exits with status RC and its combined
# stdout/stderr contains every EXPECT text (plain substrings). A crash or an
# abort fails it even when the expected text was already printed.
string(REPLACE "|" ";" ARGS "${ARGS}")
string(REPLACE "|" ";" EXPECT "${EXPECT}")
execute_process(COMMAND ${BIN} ${ARGS} RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE out)
set(missing "")
foreach(text IN LISTS EXPECT)
  string(FIND "${out}" "${text}" at)
  if(at EQUAL -1)
    list(APPEND missing "'${text}'")
  endif()
endforeach()
if(NOT rc STREQUAL RC OR missing)
  message(FATAL_ERROR "${BIN} ${ARGS}: exit ${rc} (want ${RC}), missing "
    "[${missing}]; output:\n${out}")
endif()
