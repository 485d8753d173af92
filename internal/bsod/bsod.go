// Package bsod catalogues the Windows blue-screen-of-death stop codes
// that the paper's Observation #4 links to SSD failures (Table IV).
// Damaged storage drives, bad sectors, and file-system corruption all
// surface as these codes; the fleet simulator emits them on the same
// channels the modelling layer consumes.
package bsod

import "fmt"

// Code is a Windows stop code (bug-check code).
type Code int

// Stop codes tracked by the paper (Table IV).
const (
	FATFileSystem             Code = 0x23  // FAT_FILE_SYSTEM
	NTFSFileSystem            Code = 0x24  // NTFS_FILE_SYSTEM
	CancelStateInCompletedIRP Code = 0x48  // CANCEL_STATE_IN_COMPLETED_IRP
	PageFaultInNonpagedArea   Code = 0x50  // PAGE_FAULT_IN_NONPAGED_AREA
	ProcessInitializationFail Code = 0x6B  // PROCESS1_INITIALIZATION_FAILED
	KernelStackInpageError    Code = 0x77  // KERNEL_STACK_INPAGE_ERROR
	KernelDataInpageError     Code = 0x7A  // KERNEL_DATA_INPAGE_ERROR
	NMIHardwareFailure        Code = 0x80  // NMI_HARDWARE_FAILURE
	UDFSFileSystem            Code = 0x9B  // UDFS_FILE_SYSTEM
	TimerOrDPCInvalid         Code = 0xC7  // TIMER_OR_DPC_INVALID
	SystemPTEMisuse           Code = 0xDA  // SYSTEM_PTE_MISUSE
	WorkerInvalid             Code = 0xE4  // WORKER_INVALID
	AttemptedExecuteOfNX      Code = 0xFC  // ATTEMPTED_EXECUTE_OF_NOEXECUTE_MEMORY
	FsRtlExtraCreateParameter Code = 0x10C // FSRTL_EXTRA_CREATE_PARAMETER_VIOLATION
	ExFATFileSystem           Code = 0x12C // EXFAT_FILE_SYSTEM
	RegistryFilterException   Code = 0x135 // REGISTRY_FILTER_DRIVER_EXCEPTION
	PassiveInterruptError     Code = 0x13B // PASSIVE_INTERRUPT_ERROR
	KernelThreadPriorityFloor Code = 0x157 // KERNEL_THREAD_PRIORITY_FLOOR_VIOLATION
	MicrocodeRevisionMismatch Code = 0x17E // MICROCODE_REVISION_MISMATCH
	BadObjectHeader           Code = 0x189 // BAD_OBJECT_HEADER
	IPIWatchdogTimeout        Code = 0x1DB // IPI_WATCHDOG_TIMEOUT
	StatusCannotLoad          Code = 0xC00 // STATUS_CANNOT_LOAD
)

// Info describes one catalogued stop code.
type Info struct {
	Code Code
	Name string
	// StorageRelated marks codes whose dominant root cause is the
	// storage stack (paging/inpage errors, file-system corruption);
	// these are the strongest pre-failure signals. Feature selection in
	// the paper highlights B_50 and B_7A.
	StorageRelated bool
}

var catalogue = []Info{
	{FATFileSystem, "FAT_FILE_SYSTEM", true},
	{NTFSFileSystem, "NTFS_FILE_SYSTEM", true},
	{CancelStateInCompletedIRP, "CANCEL_STATE_IN_COMPLETED_IRP", false},
	{PageFaultInNonpagedArea, "PAGE_FAULT_IN_NONPAGED_AREA", true},
	{ProcessInitializationFail, "PROCESS1_INITIALIZATION_FAILED", false},
	{KernelStackInpageError, "KERNEL_STACK_INPAGE_ERROR", true},
	{KernelDataInpageError, "KERNEL_DATA_INPAGE_ERROR", true},
	{NMIHardwareFailure, "NMI_HARDWARE_FAILURE", false},
	{UDFSFileSystem, "UDFS_FILE_SYSTEM", true},
	{TimerOrDPCInvalid, "TIMER_OR_DPC_INVALID", false},
	{SystemPTEMisuse, "SYSTEM_PTE_MISUSE", false},
	{WorkerInvalid, "WORKER_INVALID", false},
	{AttemptedExecuteOfNX, "ATTEMPTED_EXECUTE_OF_NOEXECUTE_MEMORY", false},
	{FsRtlExtraCreateParameter, "FSRTL_EXTRA_CREATE_PARAMETER_VIOLATION", false},
	{ExFATFileSystem, "EXFAT_FILE_SYSTEM", true},
	{RegistryFilterException, "REGISTRY_FILTER_DRIVER_EXCEPTION", false},
	{PassiveInterruptError, "PASSIVE_INTERRUPT_ERROR", false},
	{KernelThreadPriorityFloor, "KERNEL_THREAD_PRIORITY_FLOOR_VIOLATION", false},
	{MicrocodeRevisionMismatch, "MICROCODE_REVISION_MISMATCH", false},
	{BadObjectHeader, "BAD_OBJECT_HEADER", false},
	{IPIWatchdogTimeout, "IPI_WATCHDOG_TIMEOUT", false},
	{StatusCannotLoad, "STATUS_CANNOT_LOAD", true},
}

var indexByCode = func() map[Code]int {
	m := make(map[Code]int, len(catalogue))
	for i, info := range catalogue {
		m[info.Code] = i
	}
	return m
}()

// Count is the number of catalogued stop codes (22 from Table IV; the
// paper's Table V counts 23 BSOD features — the extra feature there is
// the total daily BSOD count, which the dataset layer derives).
func Count() int { return len(catalogue) }

// All returns the catalogue in table order. The slice is a copy.
func All() []Info {
	out := make([]Info, len(catalogue))
	copy(out, catalogue)
	return out
}

// Index returns the dense 0-based catalogue position of code, used to
// index per-code count vectors. It panics on unknown codes: stop codes
// are program constants.
func (c Code) Index() int {
	i, ok := indexByCode[c]
	if !ok {
		panic(fmt.Sprintf("bsod: unknown stop code %#x", int(c)))
	}
	return i
}

// Valid reports whether code is catalogued.
func (c Code) Valid() bool {
	_, ok := indexByCode[c]
	return ok
}

// Label returns the paper's compact label, e.g. "B_50" for 0x50.
func (c Code) Label() string { return fmt.Sprintf("B_%X", int(c)) }

// Counts is a dense per-day count vector over the catalogue, indexed by
// Code.Index().
type Counts []float64

// NewCounts returns a zeroed count vector sized for the catalogue.
func NewCounts() Counts { return make(Counts, len(catalogue)) }

// Add increments the count of code by n.
func (c Counts) Add(code Code, n float64) { c[code.Index()] += n }

// Get returns the count of code.
func (c Counts) Get(code Code) float64 { return c[code.Index()] }

// Total returns the sum over all stop codes.
func (c Counts) Total() float64 {
	var t float64
	for _, v := range c {
		t += v
	}
	return t
}
