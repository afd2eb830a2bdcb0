/* mpix_section.h — the stable, C-linkage MPI Sections interface.
 *
 * This is the one public header of the section API (paper Figs. 1 and 2):
 *
 *   int MPIX_Section_enter(MPIX_Comm comm, const char *label);
 *   int MPIX_Section_exit (MPIX_Comm comm, const char *label);
 *
 * plus the tool-side callback pair a profiler registers to observe every
 * section boundary, each receiving MPIX_SECTION_DATA_BYTES of mutable
 * storage preserved from enter to exit:
 *
 *   MPIX_Section_enter_cb / MPIX_Section_exit_cb
 *
 * The paper spells the second callback MPIX_Section_leave_cb; that
 * spelling is kept as an alias. C++ callers inside this repository may
 * keep using the typed overloads in core/sections/api.hpp — those are the
 * same functions; this header is the ABI boundary for plain-C tools.
 *
 * MPIX_Comm is an opaque handle. Inside the simulator it wraps
 * mpisect::mpisim::Comm; a C++ caller converts with
 * mpisect::sections::mpix_handle(comm).
 */
#ifndef MPIX_SECTION_H
#define MPIX_SECTION_H

/* Tool payload bytes carried across a section's lifetime (Fig. 2). */
#define MPIX_SECTION_DATA_BYTES 32

/* Result codes (mirror mpisect::sections::SectionResult; checked by
 * static_assert in the implementation). */
#define MPIX_SECTION_OK 0
#define MPIX_SECTION_ERR_NO_RUNTIME 1  /* runtime not installed */
#define MPIX_SECTION_ERR_BAD_LABEL 2   /* null/empty label */
#define MPIX_SECTION_ERR_NOT_NESTED 3  /* exit label != stack top */
#define MPIX_SECTION_ERR_EMPTY_STACK 4 /* exit with no open section */
#define MPIX_SECTION_ERR_MISMATCH 5    /* ranks disagree on label/depth */
#define MPIX_SECTION_ERR_COMM 6        /* invalid communicator */
#define MPIX_SECTION_ERR_LEAKED 7      /* still open at MPI_Finalize */

/* Opaque communicator handle. */
typedef struct MPIX_Comm_s* MPIX_Comm;

#ifdef __cplusplus
extern "C" {
#endif

/* Enter an MPI Section — non-blocking collective on `comm`.
 * Returns MPIX_SECTION_OK or an MPIX_SECTION_ERR_* code. */
int MPIX_Section_enter(MPIX_Comm comm, const char* label);

/* Leave an MPI Section — non-blocking collective on `comm`. */
int MPIX_Section_exit(MPIX_Comm comm, const char* label);

/* Tool callbacks, fired on every rank at each section boundary. `data`
 * points to MPIX_SECTION_DATA_BYTES of storage owned by the runtime and
 * preserved from the enter callback to the matching exit callback. */
typedef void (*MPIX_Section_enter_cb)(MPIX_Comm comm, const char* label,
                                      char* data);
typedef void (*MPIX_Section_exit_cb)(MPIX_Comm comm, const char* label,
                                     char* data);
/* Paper spelling of the exit callback (Fig. 2). */
typedef MPIX_Section_exit_cb MPIX_Section_leave_cb;

/* Register (or, with NULLs, reset) the callback pair on the world that
 * owns `comm`. The enter callback fires before the world's attached tools
 * (C++ hooks::Tool objects), the exit callback after them; registering
 * leaves those tools attached. Any rank may register while others enter
 * and exit sections. Returns MPIX_SECTION_OK, MPIX_SECTION_ERR_COMM, or
 * MPIX_SECTION_ERR_NO_RUNTIME when no section runtime is installed. */
int MPIX_Section_set_callbacks(MPIX_Comm comm, MPIX_Section_enter_cb on_enter,
                               MPIX_Section_exit_cb on_exit);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* MPIX_SECTION_H */
