//go:build !linux

package main

import (
	"runtime"
	"syscall"
	"time"
)

func lockPrecise() { runtime.LockOSThread() }

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

func daemonAttr() *syscall.SysProcAttr { return nil }
